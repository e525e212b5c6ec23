/**
 * @file
 * The `fullgraph` workload: whole-graph inference and training of
 * RGCN, RGAT and HGT on the `am` stand-in, in a closed loop of one
 * iteration at a time. Each iteration runs, for every model, one
 * forward on an inference plan and one training step on a training
 * plan. Every forward is checked against the reference oracle and
 * every step's gradients against a seed-kernel run taken before set-up.
 */

#include <algorithm>
#include <memory>
#include <random>

#include "bench_util.hh"
#include "core/autodiff.hh"
#include "core/compiler.hh"
#include "core/jit.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/models.hh"
#include "models/reference.hh"
#include "sim/runtime.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace hector;

constexpr models::ModelKind kKinds[3] = {
    models::ModelKind::Rgcn, models::ModelKind::Rgat, models::ModelKind::Hgt};
constexpr const char *kNames[3] = {"rgcn", "rgat", "hgt"};
constexpr const char *kForwardSpan[3] = {"core.forward.rgcn",
                                         "core.forward.rgat",
                                         "core.forward.hgt"};
constexpr const char *kTrainSpan[3] = {"core.train_step.rgcn",
                                       "core.train_step.rgat",
                                       "core.train_step.hgt"};
constexpr const char *kTrainFwdSpan[3] = {"core.train_forward.rgcn",
                                          "core.train_forward.rgat",
                                          "core.train_forward.hgt"};
constexpr const char *kBackwardSpan[3] = {"core.backward.rgcn",
                                          "core.backward.rgat",
                                          "core.backward.hgt"};

/** One model with its plans, contexts and modeled devices: inference
 *  and training each run on a device of their own, so pooled arena
 *  buffers of one model never count against another's capacity. */
struct Model
{
    explicit Model(models::ModelKind k, double scale)
        : kind(k), inferRt(sim::makeScaledSpec(scale)),
          trainRt(sim::makeScaledSpec(scale))
    {}

    models::ModelKind kind;
    sim::Runtime inferRt;
    sim::Runtime trainRt;
    models::WeightMap weights;
    core::CompiledModel infer;
    core::CompiledModel train;
    core::ExecutionContext inferCtx;
    core::ExecutionContext trainCtx;
    models::WeightMap inferGrads;
    models::WeightMap trainGrads;
};

struct State
{
    graph::HeteroGraph g;
    graph::CompactionMap cmap;
    tensor::Tensor feature;
    std::vector<std::unique_ptr<Model>> models;
    double compileSec = 0.0;
    double attachSec = 0.0;

    explicit State(graph::HeteroGraph graph)
        : g(std::move(graph)), cmap(g)
    {}
};

struct Sizes
{
    double scale;
    std::int64_t dim;
};

Sizes
sizesFor(const Options &opt)
{
    if (opt.toy)
        return {1.0 / 2048.0, 16};
    return {1.0 / 64.0, 64};
}

tensor::Tensor
forwardOnce(State &st, Model &m)
{
    auto scope = m.inferRt.memoryScope();
    m.inferCtx.reset(&st.g, &st.cmap, &m.inferRt, &m.weights,
                     &m.inferGrads);
    core::bindInputs(m.infer, m.inferCtx, st.feature);
    return m.infer.forward(m.inferCtx);
}

std::uint64_t
gradChecksum(const models::WeightMap &grads)
{
    std::vector<tensor::Tensor> ts;
    for (const auto &[name, t] : grads)
        ts.push_back(t);
    return tensor::checksum(ts);
}

/**
 * One training step, leaving the gradients in m.trainGrads. Untraced,
 * it is core::trainStep. Traced, the same public calls trainStep makes
 * are issued one by one so the forward and backward can be timed
 * apart; the gradient oracle checks that both paths agree bit for bit.
 */
void
trainOnce(State &st, Model &m, Tracer &tr, int mi)
{
    auto scope = m.trainRt.memoryScope();
    m.trainGrads.clear();
    core::ExecutionContext &ctx = m.trainCtx;
    ctx.reset(&st.g, &st.cmap, &m.trainRt, &m.weights, &m.trainGrads);
    if (!tr.on()) {
        (void)core::trainStep(m.train, ctx, st.feature);
        return;
    }
    core::bindInputs(m.train, ctx, st.feature);
    tensor::Tensor out;
    {
        Scope s(tr, kTrainFwdSpan[mi]);
        out = m.train.forward(ctx);
    }
    tensor::Tensor seed(out.shape());
    const float scale =
        1.0f / static_cast<float>(std::max<std::int64_t>(1, out.dim(0)));
    for (std::size_t i = 0; i < seed.numel(); ++i)
        seed.data()[i] = scale;
    ctx.bindExternal(core::gradOf(m.train.forwardProgram.outputVar),
                     std::move(seed));
    sim::KernelDesc loss;
    loss.name = "nll_loss";
    loss.category = sim::KernelCategory::Elementwise;
    loss.phase = sim::Phase::Forward;
    loss.flops = static_cast<double>(out.numel());
    loss.bytesRead = 4.0 * static_cast<double>(out.numel());
    loss.bytesWritten = loss.bytesRead;
    loss.workItems = static_cast<double>(out.numel());
    ctx.rt->launch(loss, nullptr);
    Scope s(tr, kBackwardSpan[mi]);
    m.train.backward(ctx);
}

core::CompileOptions
compileOptions(bool training)
{
    core::CompileOptions o;
    o.compactMaterialization = true;
    o.training = training;
    return o;
}

/**
 * The inputs a run draws from its seed: the graph (the job's input, so
 * it varies with the seed), the features and every model's weights.
 */
std::unique_ptr<State>
makeInputs(const Options &opt, const Sizes &sz)
{
    auto st = std::make_unique<State>(
        graph::generate(graph::datasetSpec("am"), sz.scale,
                        mix64(opt.seed)));
    std::mt19937_64 rng(mix64(opt.seed ^ 0xfea7));
    st->feature =
        tensor::Tensor::uniform({st->g.numNodes(), sz.dim}, rng, 0.5f);
    for (models::ModelKind kind : kKinds) {
        auto m = std::make_unique<Model>(kind, sz.scale);
        m->weights = models::initWeights(
            models::buildModel(kind, st->g, sz.dim, sz.dim), st->g, rng);
        st->models.push_back(std::move(m));
    }
    return st;
}

/** Input generation, compilation, cold JIT build and warm-up. */
std::unique_ptr<State>
setUp(const Options &opt, const Sizes &sz)
{
    auto st = makeInputs(opt, sz);
    for (auto &m : st->models) {
        const core::Program prog =
            models::buildModel(m->kind, st->g, sz.dim, sz.dim);
        st->compileSec += timeSec([&]() {
            m->infer = core::compile(prog, compileOptions(false));
            m->train = core::compile(prog, compileOptions(true));
        });
        st->attachSec += timeSec([&]() {
            core::jit::attach(m->infer);
            core::jit::attach(m->train);
        });
        m->inferCtx.adoptPlan(&m->infer.memoryPlan);
        m->trainCtx.adoptPlan(&m->train.memoryPlan);
    }
    Tracer off;
    for (std::size_t i = 0; i < st->models.size(); ++i) {
        (void)forwardOnce(*st, *st->models[i]);
        trainOnce(*st, *st->models[i], off, static_cast<int>(i));
    }
    return st;
}

/**
 * The oracles, per model: the reference forward, and the checksum of
 * the gradients of a seed-kernel training step on a fresh context that
 * adopts no memory plan and attaches no JIT module. They are built from
 * inputs of their own, before any measured state exists, so their
 * memory stays out of max_rss_mb.
 */
void
buildOracles(const Options &opt, const Sizes &sz,
             std::vector<tensor::Tensor> &references,
             std::vector<std::uint64_t> &grads)
{
    auto st = makeInputs(opt, sz);
    for (auto &m : st->models) {
        references.push_back(
            models::referenceForward(m->kind, st->g, m->weights, st->feature));
        const core::CompiledModel plan = core::compile(
            models::buildModel(m->kind, st->g, sz.dim, sz.dim),
            compileOptions(true));
        util::setSeedKernelMode(true);
        models::WeightMap g;
        core::ExecutionContext ctx;
        ctx.reset(&st->g, &st->cmap, &m->trainRt, &m->weights, &g);
        (void)core::trainStep(plan, ctx, st->feature);
        util::setSeedKernelMode(false);
        grads.push_back(gradChecksum(g));
    }
}

sim::CounterBucket
categoryTotal(const State &st, sim::KernelCategory c)
{
    sim::CounterBucket b;
    for (const auto &m : st.models) {
        b.add(m->inferRt.counters().categoryTotal(c));
        b.add(m->trainRt.counters().categoryTotal(c));
    }
    return b;
}

double
modeledSec(const State &st)
{
    double s = 0.0;
    for (const auto &m : st.models)
        s += m->inferRt.totalTimeSec() + m->trainRt.totalTimeSec();
    return s;
}

} // namespace

Result
runFullgraph(const Options &opt)
{
    const Sizes sz = sizesFor(opt);
    Result r;
    r.note("dataset", jstr("am"));
    r.note("scale", jnum(sz.scale));
    r.note("dim", std::to_string(sz.dim));
    r.note("loop", jstr("closed, one iteration at a time"));

    std::vector<tensor::Tensor> references;
    std::vector<std::uint64_t> grad_oracles;
    buildOracles(opt, sz, references, grad_oracles);

    // Cold set-ups, each timed from an empty JIT artifact directory (the
    // first also in a fresh process); the last one is kept for the
    // measurement.
    std::vector<double> setups;
    std::unique_ptr<State> st;
    core::jit::JitStats jit0{};
    for (int i = 0; i < kSetups; ++i) {
        st.reset();
        emptyJitDir();
        jit0 = core::jit::jitStats();
        const double t0 = nowSec();
        st = setUp(opt, sz);
        setups.push_back(nowSec() - t0);
    }
    const core::jit::JitStats jit1 = core::jit::jitStats();
    reportSetup(r, setups);
    r.note("nodes", std::to_string(st->g.numNodes()));
    r.note("edges", std::to_string(st->g.numEdges()));
    r.note("edge_types", std::to_string(st->g.numEdgeTypes()));
    r.note("compaction", jnum(st->cmap.ratio()));

    Tracer tr;
    std::vector<double> infer_ms, train_ms;          // untraced iterations
    std::vector<double> iter_plain, iter_traced;     // trace mode only
    std::vector<double> fwd_ms[3];
    double modeled_infer_ms = 0.0, modeled_train_ms = 0.0;
    std::size_t peak_bytes = 0;
    double fwd_wall = 0.0, fwd_gemm_flops = 0.0;
    double all_wall = 0.0;
    double traced_wall = 0.0;
    double max_diff = 0.0;
    sim::CounterBucket cat0[5];
    for (int c = 0; c < 5; ++c)
        cat0[c] = categoryTotal(*st, static_cast<sim::KernelCategory>(c));
    const double modeled0 = modeledSec(*st);

    const double t_end = nowSec() + opt.seconds;
    std::uint64_t iters = 0;
    while (iters < 2 || nowSec() < t_end) {
        const bool traced = opt.trace && (iters % 2 == 1);
        tr.setOn(traced);
        const double it0 = nowSec();
        double inf = 0.0, trn = 0.0, minf = 0.0, mtrn = 0.0;
        {
        Scope iter_span(tr, "iteration", iters + 1);
        for (int i = 0; i < 3; ++i) {
            Model &m = *st->models[static_cast<std::size_t>(i)];
            ++r.attempted;
            const double m0 = m.inferRt.totalTimeSec();
            const double f0 = m.inferRt.counters()
                                  .categoryTotal(sim::KernelCategory::Gemm)
                                  .flops;
            tensor::Tensor out;
            const double w = timeSec([&]() {
                Scope s(tr, kForwardSpan[i]);
                out = forwardOnce(*st, m);
            });
            inf += w;
            if (traced)
                fwd_ms[i].push_back(w * 1e3);
            fwd_wall += w;
            fwd_gemm_flops += m.inferRt.counters()
                                  .categoryTotal(sim::KernelCategory::Gemm)
                                  .flops -
                              f0;
            minf += m.inferRt.totalTimeSec() - m0;
            Scope check(tr, "bench.check");
            if (!matchesOracle(out, references[i], max_diff)) {
                ++r.failed;
                ++r.mismatches;
            }
        }
        for (int i = 0; i < 3; ++i) {
            Model &m = *st->models[static_cast<std::size_t>(i)];
            ++r.attempted;
            const double m0 = m.trainRt.totalTimeSec();
            m.trainRt.tracker().resetStats();
            const double w = timeSec([&]() {
                Scope s(tr, kTrainSpan[i]);
                trainOnce(*st, m, tr, i);
            });
            trn += w;
            mtrn += m.trainRt.totalTimeSec() - m0;
            peak_bytes =
                std::max(peak_bytes, m.trainRt.tracker().peakBytes());
            Scope check(tr, "bench.check");
            if (gradChecksum(m.trainGrads) != grad_oracles[i]) {
                ++r.failed;
                ++r.mismatches;
            }
        }
        }
        const double it_wall = nowSec() - it0;
        all_wall += inf + trn;
        if (iters == 0) {
            modeled_infer_ms = minf * 1e3 / sz.scale;
            modeled_train_ms = mtrn * 1e3 / sz.scale;
        }
        if (!traced) {
            infer_ms.push_back(inf * 1e3);
            train_ms.push_back(trn * 1e3);
            iter_plain.push_back(it_wall);
        } else {
            iter_traced.push_back(it_wall);
            traced_wall += it_wall;
        }
        ++iters;
    }
    tr.setOn(false);

    r.note("iterations", std::to_string(iters));
    r.note("oracle_max_abs_diff", jnum(max_diff));
    if (!opt.trace) {
        // The request of this workload is one whole-graph inference of
        // all three models; its throughput is the rate of training steps
        // (all three models), from the median step time. Tails are
        // recorded, not printed as metrics (see README.md).
        const Tail it = tailOf(infer_ms);
        const Tail tt = tailOf(train_ms);
        r.set("latency_ms_p50", median(infer_ms), "ms");
        r.set("throughput_per_s", 1e3 / median(train_ms), "1/s");
        r.set("modeled_ms", modeled_infer_ms + modeled_train_ms, "ms");
        r.set("peak_mem_mb",
              static_cast<double>(peak_bytes) / sz.scale / 1e6, "MB");
        r.note("infer_ms_p50", jnum(median(infer_ms)));
        r.note("infer_ms_tail", jnum(it.value));
        r.note("infer_ms_tail_pct", jnum(it.pct));
        r.note("train_ms_p50", jnum(median(train_ms)));
        r.note("train_ms_tail", jnum(tt.value));
        r.note("train_ms_tail_pct", jnum(tt.pct));
        r.note("samples", std::to_string(it.samples));
        r.note("modeled_infer_ms", jnum(modeled_infer_ms));
        r.note("modeled_train_ms", jnum(modeled_train_ms));
        r.note("infer_ms_samples", jlist(infer_ms));
        r.note("train_ms_samples", jlist(train_ms));
        return r;
    }

    // Per-layer numbers, from the traced iterations.
    const double n_it = static_cast<double>(iters);
    for (int c = 0; c < 5; ++c) {
        const auto cat = static_cast<sim::KernelCategory>(c);
        sim::CounterBucket b = categoryTotal(*st, cat);
        std::string name = sim::toString(cat);
        std::transform(name.begin(), name.end(), name.begin(), ::tolower);
        r.set("sim." + name + ".launches",
              static_cast<double>(b.launches - cat0[c].launches) / n_it,
              "count");
        r.set("sim." + name + ".bytes",
              (b.bytesRead + b.bytesWritten - cat0[c].bytesRead -
               cat0[c].bytesWritten) /
                  n_it,
              "B");
        r.set("sim." + name + ".modeled_ms",
              (b.timeSec - cat0[c].timeSec) * 1e3 / n_it, "ms");
        if (cat == sim::KernelCategory::Gemm)
            r.set("sim.gemm.flops", (b.flops - cat0[c].flops) / n_it,
                  "FLOP");
    }
    r.set("tensor.gemm_gflops",
          fwd_wall > 0 ? fwd_gemm_flops / fwd_wall / 1e9 : 0.0, "GFLOP/s");
    const double modeled = modeledSec(*st) - modeled0;
    r.set("sim.modeled_over_wall", all_wall > 0 ? modeled / all_wall : 0.0,
          "ratio");
    for (int i = 0; i < 3; ++i) {
        const std::string n = kNames[i];
        r.set("core.forward_ms." + n, median(fwd_ms[i]), "ms");
        r.set("core.backward_ms." + n,
              median(tr.durations(kBackwardSpan[i])) * 1e3, "ms");
        r.set("core.kernels." + n,
              static_cast<double>(
                  st->models[static_cast<std::size_t>(i)]->infer
                      .forwardKernels()),
              "count");
    }
    r.set("core.compile_ms", st->compileSec * 1e3, "ms");
    r.set("core.jit_attach_ms", st->attachSec * 1e3, "ms");
    r.set("core.jit.compiles",
          static_cast<double>(jit1.compiles - jit0.compiles), "count");
    r.set("core.jit.cache_hits",
          static_cast<double>(jit1.cacheHits - jit0.cacheHits), "count");
    r.set("core.jit.fallbacks",
          static_cast<double>(jit1.fallbacks - jit0.fallbacks), "count");
    r.set("obs.trace_overhead_pct",
          (median(iter_traced) / median(iter_plain) - 1.0) * 100.0, "%");
    r.note("self_time_s", jnum(tr.totalSelfTime()));
    r.note("self_time_s_by_span", jobject(tr.selfTimeByName()));
    r.note("traced_wall_s", jnum(traced_wall));
    if (!opt.outDir.empty())
        tr.writeJson(opt.outDir + "/trace_fullgraph.json");
    return r;
}

} // namespace perfbench
