/**
 * @file
 * Wall-clock microbenchmark of the row kernel the executor's blocked
 * GEMM paths run (core/executor.cc), plus compaction-map
 * construction.
 *
 * Standalone (std::chrono, best-of-N over interleaved pairs) — no
 * external benchmark dependency. The GEMM is timed the way execGemm's
 * blocked path runs one segment: the output zeroed, op(W) packed by
 * blocked::packPanel into a contiguous panel, then every row streamed
 * over the panel by the row kernel, in two configurations:
 *
 *   scalar  simd::rowPanelWith(1, ...)  (GemmSchedule::vecWidth == 1)
 *   simd    simd::rowPanel              (the dispatched AVX2/NEON table)
 *
 * over dense x and over x with every third element zero (the
 * zero-skip). Both outputs are compared bit-for-bit against a literal
 * seed-order loop, and on dense x SIMD must reach 1.5x scalar where
 * the dispatched ISA has vector lanes; either failure exits nonzero.
 * The sparse row is reported, not gated: one gate on the dense GEMM
 * is the contract.
 *
 * Results land in BENCH_kernels.json (util::JsonLog) for the CI
 * perf-smoke artifact trail.
 */

#include "bench_common.hh"

#include <chrono>
#include <cstring>
#include <random>
#include <utility>

#include "graph/compaction.hh"
#include "tensor/block_kernels.hh"
#include "tensor/simd.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

namespace simd = tensor::simd;

std::int64_t
envInt(const char *name, std::int64_t def)
{
    if (const char *env = std::getenv(name)) {
        const long v = std::atol(env);
        if (v > 0)
            return v;
    }
    return def;
}

/** Wall milliseconds of one @p fn() call. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Best-of-@p reps wall milliseconds of @p fn(). */
template <typename Fn>
double
bestMs(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double ms = timeMs(fn);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/**
 * Best-of-@p reps of @p a and @p b, timed in interleaved pairs with
 * the order alternating, so host noise on a shared machine lands on
 * both sides of the ratio instead of on whichever ran second.
 */
template <typename FnA, typename FnB>
std::pair<double, double>
bestPairMs(int reps, FnA &&a, FnB &&b)
{
    double best_a = 0.0, best_b = 0.0;
    for (int r = 0; r < reps; ++r) {
        double ms_a, ms_b;
        if (r % 2 == 0) {
            ms_a = timeMs(a);
            ms_b = timeMs(b);
        } else {
            ms_b = timeMs(b);
            ms_a = timeMs(a);
        }
        if (r == 0 || ms_a < best_a)
            best_a = ms_a;
        if (r == 0 || ms_b < best_b)
            best_b = ms_b;
    }
    return {best_a, best_b};
}

bool
bitIdentical(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** y = x * w in the seed's order: kk ascending, zero x skipped. */
void
seedGemm(const tensor::Tensor &x, const tensor::Tensor &w,
         tensor::Tensor &y)
{
    const std::int64_t k = x.dim(1);
    const std::int64_t n = w.dim(1);
    for (std::int64_t i = 0; i < x.dim(0); ++i) {
        float *yrow = y.row(i);
        std::memset(yrow, 0, static_cast<std::size_t>(n) * sizeof(float));
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float xv = x.row(i)[kk];
            if (xv == 0.0f)
                continue;
            for (std::int64_t j = 0; j < n; ++j)
                yrow[j] += xv * w.row(kk)[j];
        }
    }
}

/**
 * y = x * w the way execGemm's blocked path runs one segment on one
 * thread: y zeroed, op(W) packed once (k = 64 is one k-block of the
 * default schedule), then every row streamed over the panel by the
 * row kernel that @p vec_width selects (1 = scalar, 0 = dispatched).
 */
void
panelGemm(int vec_width, const tensor::Tensor &x, const tensor::Tensor &w,
          tensor::Tensor &y)
{
    const std::int64_t k = x.dim(1);
    const std::int64_t n = w.dim(1);
    std::memset(y.data(), 0, y.bytes());
    float *panel = tensor::blocked::panelFor(k, n);
    tensor::blocked::packPanel(w.data(), n, false, 0, k, n, panel);
    for (std::int64_t i = 0; i < x.dim(0); ++i)
        simd::rowPanelWith(vec_width, y.row(i), x.row(i), 1, 1.0f, panel,
                           k, n);
}

} // namespace

int
main()
{
    const std::int64_t n = envInt("HECTOR_BENCH_ROWS", 8192);
    const std::int64_t d = 64;
    const int reps = static_cast<int>(envInt("HECTOR_BENCH_REPS", 5));
    const bool vector_isa = simd::vectorWidth() > 1;

    std::printf("== Row-panel GEMM kernel: scalar / SIMD (%s, "
                "lanes=%d) ==\n",
                simd::isaName(), simd::vectorWidth());
    std::printf("rows=%lld, dim=%lld, best of %d\n\n",
                static_cast<long long>(n), static_cast<long long>(d),
                reps);

    std::mt19937_64 rng(7);
    tensor::Tensor x = tensor::Tensor::uniform({n, d}, rng, 0.5f);
    tensor::Tensor w = tensor::Tensor::uniform({d, d}, rng, 0.5f);
    // Sparse input exercises the zero-skip in the accumulation order.
    tensor::Tensor xs = x.clone();
    for (std::size_t i = 0; i < xs.numel(); i += 3)
        xs.data()[i] = 0.0f;

    const double gemm_flops = 2.0 * static_cast<double>(n) *
                              static_cast<double>(d) *
                              static_cast<double>(d);

    struct Case
    {
        const char *name;
        const tensor::Tensor &x;
        bool gated; ///< held to the 1.5x SIMD gate
    };

    JsonLog log("kernels");
    bool all_ok = true;

    printRow({"kernel", "scalar-ms", "simd-ms", "gf/s", "speedup",
              "identical", "gate"}, 19);
    for (const Case &c : {Case{"row_panel", x, true},
                          Case{"row_panel_sparse_x", xs, false}}) {
        tensor::Tensor seed_out({n, d});
        tensor::Tensor scalar_out({n, d});
        tensor::Tensor simd_out({n, d});

        seedGemm(c.x, w, seed_out);
        const auto [scalar_ms, simd_ms] = bestPairMs(
            reps, [&]() { panelGemm(1, c.x, w, scalar_out); },
            [&]() { panelGemm(0, c.x, w, simd_out); });

        const bool identical = bitIdentical(seed_out, scalar_out) &&
                               bitIdentical(seed_out, simd_out);
        const double gfs =
            simd_ms > 0.0 ? gemm_flops / (simd_ms * 1e6) : 0.0;
        const double speedup =
            simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
        const bool gate = !c.gated || !vector_isa || speedup >= 1.5;
        all_ok = all_ok && identical && gate;

        char b1[32], b2[32], b3[32], b4[32];
        std::snprintf(b1, sizeof(b1), "%.3f", scalar_ms);
        std::snprintf(b2, sizeof(b2), "%.3f", simd_ms);
        std::snprintf(b3, sizeof(b3), "%.2f", gfs);
        std::snprintf(b4, sizeof(b4), "%.2fx", speedup);
        printRow({c.name, b1, b2, b3, b4, identical ? "yes" : "NO",
                  !c.gated || !vector_isa ? "-"
                  : gate                  ? ">=1.5x"
                                          : "FAIL"},
                 19);

        char json[512];
        std::snprintf(
            json, sizeof(json),
            "{\"bench\":\"micro_kernels\",\"kernel\":\"%s\","
            "\"rows\":%lld,\"dim\":%lld,\"isa\":\"%s\",\"lanes\":%d,"
            "\"scalar_ms\":%.4f,\"simd_ms\":%.4f,"
            "\"gf_per_s\":%.3f,\"simd_speedup\":%.3f,"
            "\"contract\":\"bitwise\",\"bit_identical\":%s,"
            "\"gated\":%s,\"gate_1_5x\":%s}",
            c.name, static_cast<long long>(n), static_cast<long long>(d),
            simd::isaName(), simd::vectorWidth(), scalar_ms, simd_ms, gfs,
            speedup, identical ? "true" : "false",
            c.gated ? "true" : "false", gate ? "true" : "false");
        log.record(json);
    }

    // Compaction-map construction (indices only, no float kernels).
    {
        graph::HeteroGraph g =
            graph::generate(graph::datasetSpec("fb15k"), 1.0 / 64.0);
        std::int64_t uniq = 0;
        const double ms = bestMs(reps, [&]() {
            graph::CompactionMap cmap(g);
            uniq = cmap.numUnique();
        });
        char b1[32];
        std::snprintf(b1, sizeof(b1), "%.3f", ms);
        printRow({"compaction_map", "-", b1, "-", "-", "-", "-"}, 19);
        char json[256];
        std::snprintf(json, sizeof(json),
                      "{\"bench\":\"micro_kernels\","
                      "\"kernel\":\"compaction_map\",\"edges\":%lld,"
                      "\"unique\":%lld,\"wall_ms\":%.4f}",
                      static_cast<long long>(g.numEdges()),
                      static_cast<long long>(uniq), ms);
        log.record(json);
    }

    log.write();

    std::printf("\nbitwise + 1.5x SIMD gates: %s\n",
                all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
}
