/**
 * @file
 * Inference serving: keep one compiled RGAT model resident and answer
 * a stream of neighborhood queries with micro-batching and
 * multi-stream execution.
 *
 * Demonstrates the serving runtime end to end:
 *   1. an Engine serving one model variant over a host-resident
 *      graph + features,
 *   2. submit() sampling per-request subgraphs (paying the modeled
 *      PCIe transfer),
 *   3. drain() compiling the plan once through the PlanCache, then
 *      coalescing requests into micro-batches multiplexed over
 *      simulated streams,
 *   4. a second cycle hitting the plan cache — zero compilation work.
 */

#include <cstdio>
#include <random>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/engine.hh"

int
main()
{
    using namespace hector;

    graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("bgs"), 1.0 / 256.0, 23);
    const std::int64_t dim = 32;
    std::printf("host graph: %lld nodes, %lld edges, %d relations\n",
                static_cast<long long>(g.numNodes()),
                static_cast<long long>(g.numEdges()), g.numEdgeTypes());

    std::mt19937_64 rng(23);
    tensor::Tensor host_features =
        tensor::Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);

    sim::Runtime rt(sim::makeScaledSpec(1.0 / 256.0));
    serve::ServingConfig cfg;
    cfg.maxBatch = 8;
    cfg.numStreams = 4;
    cfg.din = dim;
    cfg.dout = dim;
    cfg.sample.numSeeds = 32;
    cfg.sample.fanout = 8;
    serve::Engine eng(g, serve::engineConfigFor(cfg), rt);
    const int rgat = eng.registerVariant("rgat", host_features,
                                         models::kRgatSource, cfg);

    std::printf("\ncycle 1: 24 queries, micro-batch<=%zu, %d streams\n",
                cfg.maxBatch, cfg.numStreams);
    std::uint64_t last_id = 0;
    for (int i = 0; i < 24; ++i)
        last_id = eng.submit(rgat);
    serve::ServingReport rep = eng.drain();
    std::printf("  %zu requests in %zu batches, %llu kernel launches\n",
                rep.requests, rep.batches,
                static_cast<unsigned long long>(rep.launches));
    std::printf("  makespan %.3f ms  ->  %.4f ms/request, p50 latency "
                "%.3f ms, max %.3f ms\n",
                rep.makespanMs, rep.msPerRequest, rep.p50LatencyMs,
                rep.maxLatencyMs);
    std::printf("  plan cache: %llu miss, %llu hits (compile ran once)\n",
                static_cast<unsigned long long>(rep.cacheMisses),
                static_cast<unsigned long long>(rep.cacheHits));

    const tensor::Tensor *out = eng.result(last_id);
    std::printf("  last query answered %lld nodes; output row 0: ",
                static_cast<long long>(out->dim(0)));
    for (std::int64_t j = 0; j < 4; ++j)
        std::printf("%+.4f ", out->at(0, j));
    std::printf("...\n");

    std::printf("\ncycle 2: 8 more queries reuse the cached plan\n");
    for (int i = 0; i < 8; ++i)
        eng.submit(rgat);
    rep = eng.drain();
    std::printf("  %zu requests, %.4f ms/request, plan cache: %llu miss "
                "(unchanged), %llu hits\n",
                rep.requests, rep.msPerRequest,
                static_cast<unsigned long long>(rep.cacheMisses),
                static_cast<unsigned long long>(rep.cacheHits));
    return 0;
}
