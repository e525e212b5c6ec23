/**
 * @file
 * Serving-runtime benchmark: modeled throughput and latency of the
 * one-variant Engine across micro-batch sizes and stream counts.
 *
 * Not a paper figure — this extends the reproduction toward the
 * production-serving north star: many independent neighborhood
 * queries against one resident model, where throughput comes from
 * coalescing requests into device-filling batches (as in GPU-based
 * ASP solving, PAPERS.md) and overlapping them across streams.
 * Prints the usual fixed-width table plus one JSON record per
 * configuration for machine consumption.
 */

#include "bench_common.hh"

#include "models/model_sources.hh"
#include "serve/engine.hh"

using namespace hector;
using namespace hector::bench;

namespace
{

struct Config
{
    std::size_t batch;
    int streams;
};

} // namespace

int
main()
{
    const double scale = benchScale();
    const std::int64_t dim = benchDim();
    const std::string dataset = []() {
        if (const char *env = std::getenv("HECTOR_SERVE_DATASET"))
            return std::string(env);
        return std::string("bgs");
    }();
    const int requests = 64;

    std::printf("== Serving: modeled throughput/latency vs micro-batch "
                "size and stream count ==\n");
    std::printf("dataset=%s, dim=%lld, scale=1/%.0f, %d requests of 16 "
                "seeds x fanout 4\n\n",
                dataset.c_str(), static_cast<long long>(dim), 1.0 / scale,
                requests);

    BenchGraph bg = loadGraph(dataset, scale);
    std::mt19937_64 frng(4242);
    tensor::Tensor host_features =
        tensor::Tensor::uniform({bg.g.numNodes(), dim}, frng, 0.5f);

    const std::vector<Config> configs = {
        {1, 1}, {2, 1}, {4, 1}, {8, 1}, {8, 2}, {8, 4}, {16, 4}, {8, 8},
    };

    // Captured from the table loop for the explicit acceptance line.
    serve::ServingReport rgat_unbatched;
    serve::ServingReport rgat_batched;

    JsonLog log("serving");

    for (models::ModelKind m : kModels) {
        std::printf("-- %s serving --\n", models::toString(m));
        printRow({"batch", "streams", "ms/req", "req/s", "p50-ms",
                  "max-ms", "launches", "speedup"});

        double baseline_ms_per_req = 0.0;
        for (const Config &c : configs) {
            sim::Runtime rt = makeRuntime(scale);
            serve::ServingConfig cfg;
            cfg.maxBatch = c.batch;
            cfg.numStreams = c.streams;
            cfg.din = dim;
            cfg.dout = dim;
            cfg.sample.numSeeds = 16;
            cfg.sample.fanout = 4;
            cfg.seed = 1337; // identical request stream per config
            serve::Engine eng(bg.g, serve::engineConfigFor(cfg), rt);
            eng.registerVariant("default", host_features, modelSource(m),
                                cfg);
            for (int i = 0; i < requests; ++i)
                eng.submit(0);
            const serve::ServingReport rep = eng.drain();
            if (m == models::ModelKind::Rgat) {
                if (c.batch == 1 && c.streams == 1)
                    rgat_unbatched = rep;
                else if (c.batch == 8 && c.streams == 4)
                    rgat_batched = rep;
            }

            // Full-size-equivalent milliseconds, like every bench.
            const double ms_per_req = rep.msPerRequest / scale;
            const double p50 = rep.p50LatencyMs / scale;
            const double max_lat = rep.maxLatencyMs / scale;
            const double rps = rep.throughputReqPerSec * scale;
            if (c.batch == 1 && c.streams == 1)
                baseline_ms_per_req = ms_per_req;
            const double speedup =
                ms_per_req > 0.0 ? baseline_ms_per_req / ms_per_req : 0.0;

            char b1[32], b2[32], b3[32], b4[32], b5[32], b6[32], b7[32],
                b8[32];
            std::snprintf(b1, sizeof(b1), "%zu", c.batch);
            std::snprintf(b2, sizeof(b2), "%d", c.streams);
            std::snprintf(b3, sizeof(b3), "%.4f", ms_per_req);
            std::snprintf(b4, sizeof(b4), "%.1f", rps);
            std::snprintf(b5, sizeof(b5), "%.4f", p50);
            std::snprintf(b6, sizeof(b6), "%.4f", max_lat);
            std::snprintf(b7, sizeof(b7), "%llu",
                          static_cast<unsigned long long>(rep.launches));
            std::snprintf(b8, sizeof(b8), "%.2fx", speedup);
            printRow({b1, b2, b3, b4, b5, b6, b7, b8});

            char json[512];
            std::snprintf(json, sizeof(json),
                          "{\"bench\":\"serving\",\"dataset\":\"%s\","
                          "\"model\":\"%s\",\"batch\":%zu,\"streams\":%d,"
                          "\"requests\":%d,\"ms_per_request\":%.6f,"
                          "\"throughput_rps\":%.3f,\"p50_latency_ms\":%.6f,"
                          "\"max_latency_ms\":%.6f,\"launches\":%llu,"
                          "\"speedup_vs_unbatched\":%.3f}",
                          dataset.c_str(), models::toString(m), c.batch,
                          c.streams, requests, ms_per_req, rps, p50,
                          max_lat,
                          static_cast<unsigned long long>(rep.launches),
                          speedup);
            log.record(json);
        }
        std::printf("\n");
    }

    // The acceptance comparison, stated explicitly: batch 8 x 4
    // streams vs unbatched single-stream, RGAT (both measured above).
    // A regression fails the run.
    const bool faster =
        rgat_batched.msPerRequest < rgat_unbatched.msPerRequest;
    std::printf("RGAT batch=8 streams=4: %.4f ms/req vs unbatched "
                "single-stream %.4f ms/req -> %.2fx %s\n",
                rgat_batched.msPerRequest / scale,
                rgat_unbatched.msPerRequest / scale,
                rgat_unbatched.msPerRequest / rgat_batched.msPerRequest,
                faster ? "(strictly faster)" : "(REGRESSION)");
    log.write();
    return faster ? 0 : 1;
}
