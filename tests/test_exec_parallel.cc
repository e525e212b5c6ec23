/**
 * @file
 * Determinism matrix of the parallel execution engine: for RGAT, RGCN
 * and HGT, inference and training, the blocked thread-pool kernels at
 * 1/2/4/7 threads must produce bit-identical outputs (and weight
 * gradients) to the seed's single-threaded scalar interpreter — on the
 * toy graph, and on a generated graph large enough that every
 * weight-gradient and colliding-scatter GEMM splits across threads.
 * Also pins the scatter inverse index those GEMMs partition by, and
 * serving-drain determinism across thread counts, including the
 * modeled report (which depends only on kernel descriptors, never on
 * the host partitioning).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "core/executor.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/models.hh"
#include "models/model_sources.hh"
#include "serve/engine.hh"
#include "tensor/block_kernels.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

struct RunOutput
{
    std::vector<float> out;
    std::map<std::string, std::vector<float>> grads;
};

core::CompiledModel
compileModel(models::ModelKind mk, bool training, bool optimized,
             const graph::HeteroGraph &g, std::int64_t dim)
{
    core::CompileOptions opts;
    opts.training = training;
    if (optimized) {
        opts.compactMaterialization = true;
        opts.linearReorder = true;
    }
    return core::compile(models::buildModel(mk, g, dim, dim), opts);
}

/** One step of @p mk on @p g at width @p dim; feature column
 *  @p zero_col (if >= 0) is all zeros. */
RunOutput
runModel(models::ModelKind mk, bool training, bool optimized,
         const graph::HeteroGraph &g, std::int64_t dim,
         std::int64_t zero_col = -1)
{
    const graph::CompactionMap cmap(g);
    const core::CompiledModel m =
        compileModel(mk, training, optimized, g, dim);
    std::mt19937_64 rng(123);
    models::WeightMap weights =
        models::initWeights(m.forwardProgram, g, rng);
    Tensor feature = Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
    if (zero_col >= 0)
        for (std::int64_t v = 0; v < g.numNodes(); ++v)
            feature.row(v)[zero_col] = 0.0f;

    sim::Runtime rt;
    models::WeightMap grads;
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);

    Tensor out;
    if (training)
        out = core::trainStep(m, ctx, feature);
    else {
        core::bindInputs(m, ctx, feature);
        out = m.forward(ctx);
    }

    RunOutput r;
    r.out.assign(out.data(), out.data() + out.numel());
    for (const auto &[name, t] : grads)
        r.grads.emplace(name, std::vector<float>(
                                  t.data(), t.data() + t.numel()));
    return r;
}

void
expectSame(const RunOutput &a, const RunOutput &b, const char *what)
{
    ASSERT_EQ(a.out.size(), b.out.size()) << what;
    EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(),
                          a.out.size() * sizeof(float)),
              0)
        << what << ": outputs diverged";
    ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
    for (const auto &[name, ga] : a.grads) {
        const auto it = b.grads.find(name);
        ASSERT_NE(it, b.grads.end()) << what << ": " << name;
        ASSERT_EQ(ga.size(), it->second.size()) << what << ": " << name;
        EXPECT_EQ(std::memcmp(ga.data(), it->second.data(),
                              ga.size() * sizeof(float)),
                  0)
            << what << ": gradient " << name << " diverged";
    }
}

class ExecDeterminism : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setSeedKernelMode(false);
        util::setGlobalThreads(0);
    }
};

TEST_F(ExecDeterminism, MatrixModelsByModeByThreads)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    for (models::ModelKind mk :
         {models::ModelKind::Rgat, models::ModelKind::Rgcn,
          models::ModelKind::Hgt}) {
        for (bool training : {false, true}) {
            for (bool optimized : {false, true}) {
                // The oracle: the seed's sequential scalar kernels.
                util::setSeedKernelMode(true);
                util::setGlobalThreads(1);
                const RunOutput seed =
                    runModel(mk, training, optimized, g, 8);

                util::setSeedKernelMode(false);
                for (int threads : {1, 2, 4, 7}) {
                    util::setGlobalThreads(threads);
                    const RunOutput got =
                        runModel(mk, training, optimized, g, 8);
                    const std::string what =
                        std::string(models::toString(mk)) +
                        (training ? "/train" : "/infer") +
                        (optimized ? "/C+R" : "/base") + "/t" +
                        std::to_string(threads);
                    expectSame(seed, got, what.c_str());
                }
            }
        }
    }
}

/**
 * Width 11, which no thread count above 1 divides, on aifb at 1/8:
 * every weight-gradient GEMM has more grad rows than its split grain
 * and every colliding-scatter GEMM (HGT's backward scatters, RGCN's
 * fused scatter with its per-row scalar) more rows than its grain, so
 * each of them runs on several threads. Feature column 3 is all zeros
 * to exercise the zero-skip.
 */
TEST_F(ExecDeterminism, SplitWeightGradAndScatterGemmsMatchSeed)
{
    constexpr std::int64_t kDim = 11;
    constexpr std::int64_t kZeroCol = 3;
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("aifb"), 1.0 / 8.0);
    const graph::CompactionMap cmap(g);
    core::ExecutionContext shape;
    shape.reset(&g, &cmap, nullptr, nullptr, nullptr);

    int outer = 0, scatter = 0, scaled_scatter = 0;
    for (models::ModelKind mk :
         {models::ModelKind::Rgat, models::ModelKind::Rgcn,
          models::ModelKind::Hgt}) {
        for (bool training : {false, true}) {
            for (bool optimized : {false, true}) {
                const std::string what =
                    std::string(models::toString(mk)) +
                    (training ? "/train" : "/infer") +
                    (optimized ? "/C+R" : "/base");
                const core::CompiledModel m =
                    compileModel(mk, training, optimized, g, kDim);
                for (const auto *fn : {&m.forwardFn, &m.backwardFn}) {
                    for (const auto &gi : fn->gemms) {
                        const std::int64_t rows = shape.rowsOf(gi.rows);
                        if (gi.kind == core::GemmKind::Outer) {
                            EXPECT_GT(gi.din, tensor::blocked::rowGrain(
                                                  rows, gi.dout))
                                << what << ": " << gi.name;
                            ++outer;
                        } else if (gi.yAccess !=
                                   core::AccessScheme::Identity) {
                            EXPECT_GT(rows, tensor::blocked::rowGrain(
                                                gi.din, gi.dout))
                                << what << ": " << gi.name;
                            ++scatter;
                            scaled_scatter += !gi.perRowScalarVar.empty();
                        }
                    }
                }

                util::setSeedKernelMode(true);
                util::setGlobalThreads(1);
                const RunOutput seed =
                    runModel(mk, training, optimized, g, kDim, kZeroCol);
                util::setSeedKernelMode(false);
                for (int threads : {1, 2, 4, 7}) {
                    util::setGlobalThreads(threads);
                    expectSame(seed,
                               runModel(mk, training, optimized, g, kDim,
                                        kZeroCol),
                               (what + "/t" + std::to_string(threads))
                                   .c_str());
                }
            }
        }
    }
    EXPECT_GT(outer, 0);
    EXPECT_GT(scatter, 0);
    EXPECT_GT(scaled_scatter, 0);
}

/** Brute force: per target, the rows resolving to it, ascending. */
void
expectInverse(const core::ScatterIndex &idx,
              std::span<const std::int64_t> target_of,
              std::int64_t targets, const std::string &what)
{
    ASSERT_EQ(idx.ptr.size(), static_cast<std::size_t>(targets) + 1)
        << what;
    ASSERT_EQ(idx.rows.size(), target_of.size()) << what;
    EXPECT_EQ(idx.ptr.front(), 0) << what;
    for (std::int64_t v = 0; v < targets; ++v) {
        std::vector<std::int64_t> want;
        for (std::size_t r = 0; r < target_of.size(); ++r)
            if (target_of[r] == v)
                want.push_back(static_cast<std::int64_t>(r));
        const std::vector<std::int64_t> got(
            idx.rows.begin() + idx.ptr[static_cast<std::size_t>(v)],
            idx.rows.begin() + idx.ptr[static_cast<std::size_t>(v) + 1]);
        EXPECT_EQ(got, want) << what << ": target " << v;
    }
}

/** All four scatter resolutions; returns targets left without rows. */
int
checkAllResolutions(const graph::HeteroGraph &g, const std::string &what)
{
    const graph::CompactionMap cmap(g);
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, nullptr, nullptr, nullptr);
    struct Case
    {
        core::AccessScheme scheme;
        core::RowDomain domain;
        std::span<const std::int64_t> targetOf;
        std::int64_t targets;
        const char *name;
    };
    const Case cases[] = {
        {core::AccessScheme::ScatterSrcAtomic, core::RowDomain::Edges,
         g.src(), g.numNodes(), "src/edges"},
        {core::AccessScheme::ScatterSrcAtomic, core::RowDomain::UniquePairs,
         cmap.uniqueRowIdx(), g.numNodes(), "src/unique"},
        {core::AccessScheme::ScatterDstAtomic, core::RowDomain::Edges,
         g.dst(), g.numNodes(), "dst/edges"},
        {core::AccessScheme::ScatterUniqueAtomic, core::RowDomain::Edges,
         cmap.edgeToUnique(), cmap.numUnique(), "unique/edges"},
    };
    int empty = 0;
    for (const Case &c : cases) {
        const core::ScatterIndex idx =
            core::buildScatterIndex(ctx, c.scheme, c.domain, c.targets);
        expectInverse(idx, c.targetOf, c.targets, what + "/" + c.name);
        for (std::int64_t v = 0; v < c.targets; ++v)
            empty += idx.ptr[static_cast<std::size_t>(v)] ==
                     idx.ptr[static_cast<std::size_t>(v) + 1];
    }
    return empty;
}

TEST(ScatterIndex, ListsAreRowAscendingForEveryResolution)
{
    // Node 4 is isolated, and (src 0, etype 0) collides three times.
    const graph::HeteroGraph small(
        {0, 0, 0, 0, 0}, 1, 2, {0, 0}, {0, 0},
        {{2, 1, 1}, {0, 1, 0}, {2, 3, 0}, {0, 2, 0}, {3, 0, 1},
         {0, 3, 0}, {2, 1, 0}});
    EXPECT_GT(checkAllResolutions(small, "small"), 0);
    checkAllResolutions(graph::toyCitationGraph(), "toy");
    checkAllResolutions(
        graph::generate(graph::datasetSpec("aifb"), 1.0 / 64.0), "aifb");
}

TEST(ScatterIndex, EmptyGraphs)
{
    // No edges: every target's list is empty.
    EXPECT_EQ(checkAllResolutions(
                  graph::HeteroGraph({0, 0, 0}, 1, 1, {0}, {0}, {}),
                  "edgeless"),
              3 * 3);
    // No nodes at all: no targets and no rows.
    EXPECT_EQ(checkAllResolutions(
                  graph::HeteroGraph({}, 1, 1, {0}, {0}, {}), "nodeless"),
              0);
}

TEST(ScatterIndex, TargetOutOfRangeThrows)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    const graph::CompactionMap cmap(g);
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, nullptr, nullptr, nullptr);
    EXPECT_THROW(core::buildScatterIndex(ctx,
                                         core::AccessScheme::ScatterDstAtomic,
                                         core::RowDomain::Edges, 1),
                 std::out_of_range);
}

TEST_F(ExecDeterminism, ServingDrainIsThreadCountInvariant)
{
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("aifb"), 1.0 / 256.0);
    std::mt19937_64 frng(11);
    const Tensor host_features =
        Tensor::uniform({g.numNodes(), 16}, frng, 0.5f);

    auto drainOnce = [&](int threads) {
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = 4;
        cfg.numStreams = 2;
        cfg.din = 16;
        cfg.dout = 16;
        cfg.sample.numSeeds = 6;
        cfg.sample.fanout = 3;
        cfg.seed = 2024;
        serve::Engine eng(g, serve::engineConfigFor(cfg), rt);
        eng.registerVariant("default", host_features, models::kHgtSource,
                            cfg);
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 10; ++i)
            ids.push_back(eng.submit(0));
        const serve::ServingReport rep = eng.drain();
        std::vector<std::vector<float>> outs;
        for (std::uint64_t id : ids) {
            const Tensor *o = eng.result(id);
            EXPECT_NE(o, nullptr);
            outs.emplace_back(o->data(), o->data() + o->numel());
        }
        return std::make_pair(rep, outs);
    };

    const auto [rep1, outs1] = drainOnce(1);
    for (int threads : {2, 4, 7}) {
        const auto [repN, outsN] = drainOnce(threads);
        ASSERT_EQ(outs1.size(), outsN.size());
        for (std::size_t i = 0; i < outs1.size(); ++i) {
            ASSERT_EQ(outs1[i].size(), outsN[i].size());
            EXPECT_EQ(std::memcmp(outs1[i].data(), outsN[i].data(),
                                  outs1[i].size() * sizeof(float)),
                      0)
                << "request " << i << " at " << threads << " threads";
        }
        // Modeled metrics come from kernel descriptors, not from how
        // the host partitioned the work.
        EXPECT_DOUBLE_EQ(rep1.makespanMs, repN.makespanMs);
        EXPECT_DOUBLE_EQ(rep1.meanLatencyMs, repN.meanLatencyMs);
        EXPECT_EQ(rep1.launches, repN.launches);
    }
}

} // namespace
