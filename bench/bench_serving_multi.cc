/**
 * @file
 * Multi-tenant serving benchmark + acceptance gates.
 *
 * Three model variants (RGAT, RGCN, HGT at different dimensions)
 * served through ONE serve::Engine over one host graph. Three phases:
 *
 *  1. correctness gate — every request served through the shared
 *     engine (interleaved traffic, autotuned schedules ON) must be
 *     bitwise identical to the same request served by a dedicated
 *     single-variant engine; any divergence exits nonzero;
 *
 *  2. budget gate — a 4 MiB plan-cache budget under a 3-variant
 *     rotation must actually bound residentBytes at every cycle
 *     boundary and must evict (evictions > 0) while outputs stay
 *     correct; a violation exits nonzero;
 *
 *  3. mixed open-loop sweep — per-variant p99 / SLO attainment and
 *     engine throughput across offered-load mixes, with cache churn
 *     and schedule keys in the JSON records (BENCH_serving_multi.json);
 *
 *  4. deterministic-trace gate — the same traced drain + open-loop run
 *     must export byte-identical Chrome-trace JSON (and metrics
 *     snapshot) across two repeats and across 1/2/4 host threads; any
 *     divergence exits nonzero. The reference trace is written to
 *     TRACE_serving_multi.json for CI to validate and archive.
 */

#include "bench_common.hh"

#include <cstring>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/online.hh"
#include "sim/counters.hh"
#include "util/thread_pool.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

struct VariantDef
{
    const char *name;
    models::ModelKind kind;
    std::int64_t din;
    std::int64_t dout;
    std::uint64_t seed;
    std::uint64_t featureSeed;
    double deadlineMs;
};

const std::vector<VariantDef> kVariants = {
    {"rgat-d64", models::ModelKind::Rgat, 64, 64, 101, 11, 0.75},
    {"rgcn-d64x32", models::ModelKind::Rgcn, 64, 32, 202, 12, 0.5},
    {"hgt-d32", models::ModelKind::Hgt, 32, 32, 303, 13, 1.0},
};

serve::ServingConfig
configFor(const VariantDef &v, double scale)
{
    serve::ServingConfig cfg;
    cfg.maxBatch = 8;
    cfg.din = v.din;
    cfg.dout = v.dout;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    cfg.seed = v.seed;
    // Deadlines are stated in full-size-equivalent milliseconds, so
    // they scale down with the modeled time like every latency.
    cfg.deadlineMs = v.deadlineMs * scale;
    return cfg;
}

tensor::Tensor
featuresFor(const graph::HeteroGraph &g, const VariantDef &v)
{
    std::mt19937_64 rng(v.featureSeed);
    return tensor::Tensor::uniform({g.numNodes(), v.din}, rng, 0.5f);
}

bool
bitIdentical(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

} // namespace

int
main()
{
    const double scale = benchScale();
    const std::string dataset = []() {
        if (const char *env = std::getenv("HECTOR_SERVE_DATASET"))
            return std::string(env);
        return std::string("bgs");
    }();
    const std::size_t per_variant = 12;
    const std::size_t budget_bytes = 4u << 20; // the 4 MiB gate

    std::printf("== Multi-tenant serving: %zu variants through one "
                "engine ==\n",
                kVariants.size());
    std::printf("dataset=%s, scale=1/%.0f, %zu requests per variant, "
                "plan budget %zu bytes\n\n",
                dataset.c_str(), 1.0 / scale, per_variant, budget_bytes);

    BenchGraph bg = loadGraph(dataset, scale);
    JsonLog log("serving_multi");
    bool failed = false;

    // --------------------------------------------- 1. correctness gate
    // Dedicated per-variant oracles (fresh one-variant engines, default
    // schedules), then the shared engine with interleaved traffic and
    // autotuned schedules.
    std::vector<std::vector<tensor::Tensor>> oracle(kVariants.size());
    for (std::size_t i = 0; i < kVariants.size(); ++i) {
        sim::Runtime rt = makeRuntime(scale);
        const serve::ServingConfig vcfg = configFor(kVariants[i], scale);
        serve::Engine solo(bg.g, serve::engineConfigFor(vcfg), rt);
        solo.registerVariant("default", featuresFor(bg.g, kVariants[i]),
                             modelSource(kVariants[i].kind), vcfg);
        std::vector<std::uint64_t> ids;
        for (std::size_t r = 0; r < per_variant; ++r)
            ids.push_back(solo.submit(0));
        solo.drain();
        for (std::uint64_t id : ids)
            oracle[i].push_back(solo.result(id)->clone());
    }

    sim::Runtime rt = makeRuntime(scale);
    serve::EngineConfig ecfg;
    ecfg.numStreams = 2;
    ecfg.autotuneSchedules = true;
    serve::Engine engine(bg.g, ecfg, rt);
    std::vector<int> vids;
    for (const VariantDef &v : kVariants)
        vids.push_back(engine.registerVariant(
            v.name, featuresFor(bg.g, v), modelSource(v.kind),
            configFor(v, scale)));

    std::vector<std::vector<std::uint64_t>> engine_ids(kVariants.size());
    for (std::size_t r = 0; r < per_variant; ++r)
        for (std::size_t i = 0; i < kVariants.size(); ++i)
            engine_ids[i].push_back(engine.submit(vids[i]));
    const serve::ServingReport mixed = engine.drain();

    std::size_t divergent = 0;
    for (std::size_t i = 0; i < kVariants.size(); ++i)
        for (std::size_t r = 0; r < per_variant; ++r) {
            const tensor::Tensor *out =
                engine.result(engine_ids[i][r]);
            if (!out || !bitIdentical(*out, oracle[i][r]))
                ++divergent;
        }
    std::printf("correctness: %zu requests via one engine vs dedicated "
                "sessions -> %zu divergent %s\n",
                kVariants.size() * per_variant, divergent,
                divergent == 0 ? "(bit-identical)" : "(FAILURE)");
    for (std::size_t i = 0; i < kVariants.size(); ++i)
        std::printf("  %-12s schedule key: %s\n", kVariants[i].name,
                    engine.scheduleKey(vids[i]).c_str());
    if (divergent > 0)
        failed = true;

    // ------------------------------------------------- 2. budget gate
    sim::Runtime brt = makeRuntime(scale);
    serve::EngineConfig bcfg;
    bcfg.planBudgetBytes = budget_bytes;
    serve::Engine bounded(bg.g, bcfg, brt);
    std::vector<int> bvids;
    for (const VariantDef &v : kVariants)
        bvids.push_back(bounded.registerVariant(
            v.name, featuresFor(bg.g, v), modelSource(v.kind),
            configFor(v, scale)));

    std::size_t peak_resident = 0;
    std::size_t budget_violations = 0;
    std::size_t budget_divergent = 0;
    const int rounds = 3;
    for (int round = 0; round < rounds; ++round)
        for (std::size_t i = 0; i < kVariants.size(); ++i) {
            std::vector<std::uint64_t> ids;
            for (std::size_t r = 0; r < per_variant / 2; ++r)
                ids.push_back(bounded.submit(bvids[i]));
            const serve::ServingReport rep = bounded.drain();
            peak_resident =
                std::max(peak_resident, rep.cacheResidentBytes);
            if (rep.cacheResidentBytes > budget_bytes)
                ++budget_violations;
            // Outputs under rotation must match the oracle's request
            // stream (requests continue where the previous cycles
            // left off).
            for (std::size_t r = 0; r < ids.size(); ++r) {
                const std::size_t k =
                    static_cast<std::size_t>(round) * ids.size() + r;
                if (k >= per_variant)
                    continue;
                const tensor::Tensor *out = bounded.result(ids[r]);
                if (!out || !bitIdentical(*out, oracle[i][k]))
                    ++budget_divergent;
            }
        }
    const serve::PlanCache::Stats &bstats = bounded.planCache().stats();
    std::printf("\nbudget: %d-round rotation under %zu bytes -> "
                "peak resident %zu, evictions %llu, recompiles %llu, "
                "first-time misses %llu, violations %zu, divergent %zu "
                "%s\n",
                rounds, budget_bytes, peak_resident,
                static_cast<unsigned long long>(bstats.evictions),
                static_cast<unsigned long long>(bstats.recompiles),
                static_cast<unsigned long long>(bstats.misses),
                budget_violations, budget_divergent,
                budget_violations == 0 && bstats.evictions > 0 &&
                        budget_divergent == 0
                    ? "(bounded)"
                    : "(FAILURE)");
    if (budget_violations > 0 || bstats.evictions == 0 ||
        budget_divergent > 0)
        failed = true;

    char bjson[512];
    std::snprintf(
        bjson, sizeof(bjson),
        "{\"bench\":\"serving_multi\",\"phase\":\"budget\","
        "\"dataset\":\"%s\",\"variants\":%zu,\"budget_bytes\":%zu,"
        "\"peak_resident_bytes\":%zu,\"evictions\":%llu,"
        "\"recompiles\":%llu,\"misses\":%llu,\"violations\":%zu,"
        "\"divergent\":%zu}",
        dataset.c_str(), kVariants.size(), budget_bytes, peak_resident,
        static_cast<unsigned long long>(bstats.evictions),
        static_cast<unsigned long long>(bstats.recompiles),
        static_cast<unsigned long long>(bstats.misses),
        budget_violations, budget_divergent);
    log.record(bjson);

    // --------------------------------------- 3. mixed open-loop sweep
    std::printf("\n-- mixed open-loop sweep (adaptive batching, "
                "deadline-aware interleaving) --\n");
    printRow({"load-x", "req/s", "p99-ms", "slo", "evict", "recomp",
              "mean-batch"});
    // The phase-1 drain throughput anchors the offered-load axis: it
    // is the engine's modeled saturation capacity over this mix.
    const double capacity_rps =
        std::max(1.0, mixed.throughputReqPerSec);
    for (double load : {0.25, 1.0, 4.0}) {
        sim::Runtime srt = makeRuntime(scale);
        serve::EngineConfig scfg;
        scfg.numStreams = 2;
        scfg.autotuneSchedules = true;
        serve::Engine sweep(bg.g, scfg, srt);
        serve::OnlineConfig ocfg;
        ocfg.variants.clear();
        for (const VariantDef &v : kVariants) {
            sweep.registerVariant(v.name, featuresFor(bg.g, v),
                                  modelSource(v.kind), configFor(v, scale));
            ocfg.variants.push_back(
                {v.name,
                 load * capacity_rps /
                     static_cast<double>(kVariants.size()),
                 16, 0xc0de ^ v.seed});
        }
        serve::OnlineServer server(sweep, ocfg);
        const serve::OnlineReport rep = server.run();

        char c1[32], c2[32], c3[32], c4[32], c5[32], c6[32], c7[32];
        std::snprintf(c1, sizeof(c1), "%.2f", load);
        std::snprintf(c2, sizeof(c2), "%.1f",
                      rep.throughputReqPerSec * scale);
        std::snprintf(c3, sizeof(c3), "%.4f", rep.p99LatencyMs / scale);
        std::snprintf(c4, sizeof(c4), "%.3f", rep.sloAttainment);
        std::snprintf(c5, sizeof(c5), "%llu",
                      static_cast<unsigned long long>(rep.cacheEvictions));
        std::snprintf(c6, sizeof(c6), "%llu",
                      static_cast<unsigned long long>(
                          rep.cacheRecompiles));
        std::snprintf(c7, sizeof(c7), "%.2f", rep.meanBatchSize);
        printRow({c1, c2, c3, c4, c5, c6, c7});

        for (const serve::VariantReport &vr : rep.perVariant) {
            std::printf("    %-12s req=%zu p50=%.4f p99=%.4f slo=%.3f\n",
                        vr.name.c_str(), vr.requests,
                        vr.p50LatencyMs / scale, vr.p99LatencyMs / scale,
                        vr.sloAttainment);
            char json[512];
            std::snprintf(
                json, sizeof(json),
                "{\"bench\":\"serving_multi\",\"phase\":\"sweep\","
                "\"dataset\":\"%s\",\"load\":%.2f,\"variant\":\"%s\","
                "\"requests\":%zu,\"p50_latency_ms\":%.6f,"
                "\"p99_latency_ms\":%.6f,\"slo_attainment\":%.4f,"
                "\"engine_rps\":%.3f,\"mean_batch\":%.3f,"
                "\"cache_evictions\":%llu,\"cache_recompiles\":%llu}",
                dataset.c_str(), load, vr.name.c_str(), vr.requests,
                vr.p50LatencyMs / scale, vr.p99LatencyMs / scale,
                vr.sloAttainment, rep.throughputReqPerSec * scale,
                rep.meanBatchSize,
                static_cast<unsigned long long>(rep.cacheEvictions),
                static_cast<unsigned long long>(rep.cacheRecompiles));
            log.record(json);
        }
    }

    // --------------------------------- 4. deterministic-trace gate
    // One traced workload (closed-loop drains + a short multi-tenant
    // open-loop run), repeated at different host thread counts. In
    // deterministic mode the export carries only virtual-clock events,
    // so every repeat must produce byte-identical JSON.
    std::printf("\n-- deterministic-trace gate --\n");

    struct TracedRun
    {
        std::string trace;
        std::string metricsSnapshot;
        std::size_t flightEvents = 0;
    };
    auto traced_run = [&](int threads) -> TracedRun {
        util::setGlobalThreads(threads);
        obs::setDeterministic(true);
        obs::setEnabled(true);
        obs::tracer().clear();
        obs::metrics().clear();

        sim::Runtime trt = makeRuntime(scale);
        serve::EngineConfig tcfg;
        tcfg.numStreams = 2;
        serve::Engine eng(bg.g, tcfg, trt);
        std::vector<int> tvids;
        for (const VariantDef &v : kVariants)
            tvids.push_back(eng.registerVariant(
                v.name, featuresFor(bg.g, v), modelSource(v.kind),
                configFor(v, scale)));

        obs::FlightRecorder recorder;
        eng.setFlightRecorder(&recorder);
        for (int round = 0; round < 3; ++round) {
            for (int vid : tvids)
                for (int r = 0; r < 4; ++r)
                    eng.submit(vid);
            eng.drain();
        }

        serve::OnlineConfig ocfg;
        for (const VariantDef &v : kVariants)
            ocfg.variants.push_back(
                {v.name, capacity_rps / 3.0, 8, 0xbead ^ v.seed});
        serve::OnlineServer server(eng, ocfg);
        server.setFlightRecorder(&recorder);
        server.run();

        serve::absorbStats(obs::metrics(), eng.planCache().stats(),
                           "engine.plan_cache");
        sim::absorbCounters(obs::metrics(), trt.counters(), trt.spec(),
                            "device0");

        TracedRun out;
        out.trace = obs::tracer().exportJson();
        out.metricsSnapshot = obs::metrics().snapshotJson();
        for (std::uint64_t id : recorder.requests())
            out.flightEvents += recorder.timeline(id)->size();
        obs::setEnabled(false);
        util::setGlobalThreads(0);
        return out;
    };

    const TracedRun ref = traced_run(1);
    std::size_t trace_divergent = 0;
    for (int threads : {1, 2, 4}) {
        const TracedRun rerun = traced_run(threads);
        const bool same_trace = rerun.trace == ref.trace;
        const bool same_metrics =
            rerun.metricsSnapshot == ref.metricsSnapshot;
        std::printf("  threads=%d: trace %s, metrics %s\n", threads,
                    same_trace ? "identical" : "DIVERGENT",
                    same_metrics ? "identical" : "DIVERGENT");
        if (!same_trace || !same_metrics)
            ++trace_divergent;
    }
    if (ref.flightEvents == 0) {
        std::printf("  flight recorder captured no events (FAILURE)\n");
        failed = true;
    }
    if (trace_divergent > 0)
        failed = true;
    if (!util::writeFileAtomic("TRACE_serving_multi.json", ref.trace))
        failed = true;
    std::printf("  trace: %zu bytes, flight events %zu -> %s\n",
                ref.trace.size(), ref.flightEvents,
                trace_divergent == 0 ? "byte-stable across runs and "
                                       "thread counts"
                                     : "FAILURE");

    char tjson[256];
    std::snprintf(tjson, sizeof(tjson),
                  "{\"bench\":\"serving_multi\",\"phase\":\"trace\","
                  "\"dataset\":\"%s\",\"trace_bytes\":%zu,"
                  "\"flight_events\":%zu,\"divergent\":%zu}",
                  dataset.c_str(), ref.trace.size(), ref.flightEvents,
                  trace_divergent);
    log.record(tjson);
    log.record("{\"bench\":\"serving_multi\",\"phase\":\"metrics\","
               "\"snapshot\":" +
               ref.metricsSnapshot + "}");

    if (!log.write())
        failed = true;
    std::printf("\n%s\n", failed ? "FAILURE: multi-tenant acceptance "
                                   "gates violated"
                                 : "OK: bitwise correctness + bounded "
                                   "plan memory hold");
    return failed ? 1 : 0;
}
