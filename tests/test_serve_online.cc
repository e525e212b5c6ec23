/**
 * @file
 * Tests for the online serving layer (src/serve/online.*): the Poisson
 * load generator is deterministic under a fixed seed and scales
 * exactly with rate, the adaptive batcher serves shallow queues
 * immediately and grows to maxBatch under saturation, the open-loop
 * server produces bit-identical per-request results to closed-loop
 * drain cycles, SLO attainment is monotone non-increasing in offered
 * load, and the simulated virtual clock advances monotonically to the
 * run's makespan. The single-device server and a one-variant Engine
 * run through the same lane loop and must agree field for field.
 * Everything here is deterministic under fixed seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/online.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

graph::HeteroGraph
servingGraph()
{
    return graph::generate(graph::datasetSpec("aifb"), 1.0 / 16.0, 11);
}

Tensor
hostFeatures(const graph::HeteroGraph &g, std::int64_t dim,
             std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    return Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
}

serve::OnlineConfig
onlineConfig(std::size_t requests = 24, double rate = 50000.0)
{
    serve::OnlineConfig cfg;
    cfg.serving.maxBatch = 8;
    cfg.serving.numStreams = 2;
    cfg.serving.din = 8;
    cfg.serving.dout = 8;
    cfg.serving.sample.numSeeds = 16;
    cfg.serving.sample.fanout = 4;
    cfg.serving.seed = 777;
    cfg.numRequests = requests;
    cfg.arrivalRatePerSec = rate;
    return cfg;
}

serve::OnlineReport
runServer(const graph::HeteroGraph &g, const Tensor &features,
          serve::OnlineConfig cfg,
          std::vector<double> *latencies_ms = nullptr,
          std::vector<std::size_t> *batch_sizes = nullptr)
{
    sim::Runtime rt;
    serve::OnlineServer server(g, features, models::kRgcnSource, cfg, rt);
    const serve::OnlineReport rep = server.run();
    if (latencies_ms)
        *latencies_ms = server.latenciesMs();
    if (batch_sizes)
        *batch_sizes = server.batchSizes();
    return rep;
}

// ------------------------------------------------------------ LoadGenerator

TEST(LoadGenerator, DeterministicUnderFixedSeed)
{
    const auto a = serve::LoadGenerator::arrivals(1000.0, 256, 42);
    const auto b = serve::LoadGenerator::arrivals(1000.0, 256, 42);
    const auto c = serve::LoadGenerator::arrivals(1000.0, 256, 43);
    ASSERT_EQ(a.size(), 256u);
    EXPECT_EQ(a, b) << "same seed must give the identical sequence";
    EXPECT_NE(a, c) << "different seeds must diverge";
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]) << "arrivals must strictly increase";
    EXPECT_GT(a.front(), 0.0);
}

TEST(LoadGenerator, MeanInterArrivalMatchesRate)
{
    const double rate = 2000.0;
    const auto t = serve::LoadGenerator::arrivals(rate, 4096, 7);
    const double mean_gap = t.back() / static_cast<double>(t.size());
    EXPECT_NEAR(mean_gap, 1.0 / rate, 0.1 / rate)
        << "mean inter-arrival must approximate 1/rate";
}

TEST(LoadGenerator, ArrivalTimesScaleExactlyWithRate)
{
    const auto slow = serve::LoadGenerator::arrivals(500.0, 128, 99);
    const auto fast = serve::LoadGenerator::arrivals(2000.0, 128, 99);
    ASSERT_EQ(slow.size(), fast.size());
    // Equal seeds draw the same uniforms, so times scale by the exact
    // rate ratio — the property that makes rate sweeps comparable.
    for (std::size_t i = 0; i < slow.size(); ++i)
        EXPECT_NEAR(slow[i], 4.0 * fast[i], 1e-12 * slow[i] + 1e-15);
}

TEST(LoadGenerator, StreamingInterfaceMatchesBatchInterface)
{
    const auto batch = serve::LoadGenerator::arrivals(1234.0, 32, 5);
    serve::LoadGenerator gen(1234.0, 32, 5);
    for (double expected : batch) {
        ASSERT_FALSE(gen.done());
        EXPECT_EQ(gen.peekSec(), expected);
        EXPECT_EQ(gen.next(), expected);
    }
    EXPECT_TRUE(gen.done());
    EXPECT_THROW(gen.peekSec(), std::runtime_error);
}

// ---------------------------------------------------------- AdaptiveBatcher

TEST(AdaptiveBatcher, ReachesMaxBatchUnderSaturation)
{
    serve::AdaptiveBatcher b(8, 1e-3);
    EXPECT_EQ(b.pick(8), 8u);
    EXPECT_EQ(b.pick(100), 8u);
    // Still true once calibrated, even with costly batches: with an
    // UNBOUNDED queue (the default here) saturation means deadlines
    // are blown either way and throughput rules. A bounded-queue
    // batcher keeps its deadline cap instead — see
    // test_serve_overload.cc.
    b.observe({8, 1e-3, 8e-3, {}});
    EXPECT_EQ(b.pick(8), 8u);
    EXPECT_EQ(b.pick(1000), 8u);
}

TEST(AdaptiveBatcher, ServesQueueDepthImmediatelyWhenUncalibrated)
{
    serve::AdaptiveBatcher b(8, 1e-3);
    EXPECT_FALSE(b.calibrated());
    EXPECT_EQ(b.pick(0), 0u);
    EXPECT_EQ(b.pick(1), 1u);
    EXPECT_EQ(b.pick(5), 5u);
}

TEST(AdaptiveBatcher, DeadlineBudgetCapsBatchSize)
{
    // deadline 1 ms, budget fraction 0.5 -> 0.5 ms service budget.
    serve::AdaptiveBatcher b(8, 1e-3, 0.25, 0.5);
    // Expensive service: 0.1 ms overhead + 0.4 ms exec for 2 requests
    // (0.2 ms per request) -> budget after overhead fits exactly 2.
    b.observe({2, 1e-4, 4e-4, {}});
    EXPECT_TRUE(b.calibrated());
    EXPECT_EQ(b.pick(5), 2u)
        << "cost model must cap the batch to the deadline budget";
    EXPECT_EQ(b.pick(1), 1u);

    // Cheap service: the cap is far above the depth, so depth rules.
    serve::AdaptiveBatcher cheap(8, 1e-3, 0.25, 0.5);
    cheap.observe({4, 1e-6, 4e-6, {}});
    EXPECT_EQ(cheap.pick(5), 5u);
}

TEST(AdaptiveBatcher, EwmaTracksObservedCosts)
{
    serve::AdaptiveBatcher b(8, 0.0, 0.5);
    b.observe({4, 2e-5, 4e-5, {}}); // first observation seeds the EWMA
    EXPECT_DOUBLE_EQ(b.ewmaOverheadSec(), 2e-5);
    EXPECT_DOUBLE_EQ(b.ewmaExecPerRequestSec(), 1e-5);

    // Costs double: the EWMA moves monotonically toward the new level
    // without overshooting it.
    double prev = b.ewmaExecPerRequestSec();
    for (int i = 0; i < 10; ++i) {
        b.observe({4, 4e-5, 8e-5, {}});
        EXPECT_GT(b.ewmaExecPerRequestSec(), prev);
        EXPECT_LE(b.ewmaExecPerRequestSec(), 2e-5);
        prev = b.ewmaExecPerRequestSec();
    }
    EXPECT_NEAR(b.ewmaExecPerRequestSec(), 2e-5, 1e-7);
}

// ------------------------------------------------------------- OnlineServer

TEST(OnlineServer, DeterministicUnderFixedSeeds)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 61);

    std::vector<double> lat1, lat2;
    std::vector<std::size_t> sizes1, sizes2;
    const serve::OnlineReport r1 =
        runServer(g, host, onlineConfig(), &lat1, &sizes1);
    const serve::OnlineReport r2 =
        runServer(g, host, onlineConfig(), &lat2, &sizes2);

    EXPECT_EQ(lat1, lat2);
    EXPECT_EQ(sizes1, sizes2);
    EXPECT_EQ(r1.makespanMs, r2.makespanMs);
    EXPECT_EQ(r1.p99LatencyMs, r2.p99LatencyMs);
    EXPECT_EQ(r1.sloAttainment, r2.sloAttainment);
    EXPECT_EQ(r1.ticks, r2.ticks);
}

TEST(OnlineServer, ResultsBitIdenticalToClosedLoopDrain)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 62);

    serve::OnlineConfig cfg = onlineConfig(12);
    cfg.retainResults = true;

    sim::Runtime rt_online;
    serve::OnlineServer server(g, host, models::kRgcnSource, cfg,
                               rt_online);
    server.run();

    // A closed-loop engine with the same serving seed samples the
    // identical request stream (ids 1..n in the same order).
    sim::Runtime rt_closed;
    serve::Engine closed(g, serve::engineConfigFor(cfg.serving),
                         rt_closed);
    closed.registerVariant("default", host, models::kRgcnSource,
                           cfg.serving);
    for (std::size_t i = 0; i < cfg.numRequests; ++i)
        closed.submit(0);
    closed.drain();

    for (std::uint64_t id = 1; id <= cfg.numRequests; ++id) {
        const Tensor *online_out = server.engine().result(id);
        const Tensor *closed_out = closed.result(id);
        ASSERT_NE(online_out, nullptr) << "online result " << id;
        ASSERT_NE(closed_out, nullptr) << "closed result " << id;
        ASSERT_EQ(online_out->shape(), closed_out->shape());
        EXPECT_EQ(tensor::maxAbsDiff(*online_out, *closed_out), 0.0f)
            << "request " << id
            << " served differently online vs closed-loop";
    }
}

TEST(OnlineServer, SloAttainmentMonotoneNonIncreasingInOfferedLoad)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 63);

    // Calibrate the deadline to the lone-request latency so the rate
    // sweep crosses from trivially-attained to hopeless.
    serve::OnlineConfig probe = onlineConfig(4, 1.0);
    const serve::OnlineReport lone = runServer(g, host, probe);
    const double deadline_ms = 3.0 * lone.meanLatencyMs;
    ASSERT_GT(deadline_ms, 0.0);

    // Saturation capacity anchors the sweep.
    serve::OnlineConfig sat = onlineConfig(32, 1e12);
    const serve::OnlineReport peak = runServer(g, host, sat);
    ASSERT_GT(peak.throughputReqPerSec, 0.0);

    double prev = 1.1;
    for (double frac : {0.05, 0.3, 1.0, 4.0}) {
        serve::OnlineConfig cfg = onlineConfig(32);
        cfg.serving.deadlineMs = deadline_ms;
        cfg.arrivalRatePerSec = frac * peak.throughputReqPerSec;
        const serve::OnlineReport rep = runServer(g, host, cfg);
        EXPECT_LE(rep.sloAttainment, prev + 1e-12)
            << "attainment increased at load fraction " << frac;
        prev = rep.sloAttainment;
    }
    EXPECT_LT(prev, 1.0)
        << "the sweep must actually reach an overloaded regime";
}

TEST(OnlineServer, AdaptiveBatcherSaturatesEndToEnd)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 64);

    serve::OnlineConfig cfg = onlineConfig(48, 1e12); // instant arrivals
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep =
        runServer(g, host, cfg, nullptr, &sizes);

    ASSERT_FALSE(sizes.empty());
    EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()),
              cfg.serving.maxBatch)
        << "saturation must drive the batcher to maxBatch";
    EXPECT_GT(rep.meanBatchSize,
              static_cast<double>(cfg.serving.maxBatch) / 2.0);
    EXPECT_EQ(rep.peakQueueDepth, cfg.numRequests);
}

TEST(OnlineServer, LowLoadServesSmallBatchesAndMeetsGenerousDeadline)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 65);

    serve::OnlineConfig cfg = onlineConfig(24, 10.0); // near-isolated
    cfg.serving.deadlineMs = 1e6;
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep =
        runServer(g, host, cfg, nullptr, &sizes);

    EXPECT_EQ(rep.sloAttainment, 1.0);
    for (std::size_t s : sizes)
        EXPECT_EQ(s, 1u) << "an idle server must not wait to batch";
    EXPECT_LT(rep.meanQueueDelayMs, rep.meanLatencyMs);
    EXPECT_EQ(rep.peakQueueDepth, 1u);
}

TEST(OnlineServer, VirtualClockAdvancesMonotonicallyToMakespan)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 66);

    sim::Runtime rt;
    EXPECT_EQ(rt.nowSec(), 0.0);
    rt.advanceTo(5.0);
    rt.advanceTo(2.0); // earlier: ignored
    EXPECT_EQ(rt.nowSec(), 5.0);
    rt.resetCounters();
    EXPECT_EQ(rt.nowSec(), 0.0);

    serve::OnlineServer server(g, host, models::kRgcnSource,
                               onlineConfig(), rt);
    const serve::OnlineReport rep = server.run();
    EXPECT_NEAR(rt.nowMs(), rep.makespanMs, 1e-9)
        << "the clock must end at the last completion";
}

TEST(OnlineServer, ReportInternallyConsistent)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 67);

    serve::OnlineConfig cfg = onlineConfig(32);
    cfg.serving.deadlineMs = 0.5;
    std::vector<double> lats;
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep = runServer(g, host, cfg, &lats, &sizes);

    EXPECT_EQ(rep.requests, cfg.numRequests);
    EXPECT_EQ(rep.batches, rep.ticks);
    EXPECT_EQ(sizes.size(), rep.ticks);
    EXPECT_EQ(lats.size(), rep.requests);

    std::size_t total = 0;
    for (std::size_t s : sizes)
        total += s;
    EXPECT_EQ(total, rep.requests);
    EXPECT_NEAR(rep.meanBatchSize,
                static_cast<double>(total) /
                    static_cast<double>(rep.ticks),
                1e-12);

    EXPECT_LE(rep.p50LatencyMs, rep.p95LatencyMs);
    EXPECT_LE(rep.p95LatencyMs, rep.p99LatencyMs);
    EXPECT_LE(rep.p99LatencyMs, rep.maxLatencyMs);
    EXPECT_GT(rep.makespanMs, 0.0);
    EXPECT_GT(rep.throughputReqPerSec, 0.0);
    EXPECT_GE(rep.sloAttainment, 0.0);
    EXPECT_LE(rep.sloAttainment, 1.0);
    EXPECT_GE(rep.makespanMs, rep.lastArrivalMs);
    EXPECT_GT(rep.launches, 0u);
    EXPECT_EQ(rep.cacheMisses, 1u) << "one plan compile per model";
}

TEST(OnlineServer, AdaptiveBeatsFixedTailAtLowLoadMatchesThroughputAtHigh)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 68);

    serve::OnlineConfig sat = onlineConfig(32, 1e12);
    const double capacity = runServer(g, host, sat).throughputReqPerSec;
    ASSERT_GT(capacity, 0.0);

    auto with_policy = [&](double rate, bool adaptive) {
        serve::OnlineConfig cfg = onlineConfig(32, rate);
        cfg.adaptive = adaptive;
        cfg.serving.deadlineMs = 1.0;
        return runServer(g, host, cfg);
    };

    // Low load: wait-to-fill pays fill-wait latency, adaptive doesn't.
    const double low = 0.05 * capacity;
    const serve::OnlineReport a_low = with_policy(low, true);
    const serve::OnlineReport f_low = with_policy(low, false);
    EXPECT_LT(a_low.p99LatencyMs, f_low.p99LatencyMs);

    // High load: both serve full batches back to back.
    const double high = 2.0 * capacity;
    const serve::OnlineReport a_high = with_policy(high, true);
    const serve::OnlineReport f_high = with_policy(high, false);
    EXPECT_GE(a_high.throughputReqPerSec,
              0.95 * f_high.throughputReqPerSec);
}

TEST(OnlineServer, FixedBatchClampedToMaxBatch)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 70);

    serve::OnlineConfig cfg = onlineConfig(24, 1e12); // saturated
    cfg.adaptive = false;
    cfg.fixedBatch = 32; // above maxBatch: must be clamped
    std::vector<std::size_t> sizes;
    runServer(g, host, cfg, nullptr, &sizes);

    ASSERT_FALSE(sizes.empty());
    for (std::size_t s : sizes)
        EXPECT_LE(s, cfg.serving.maxBatch)
            << "fixedBatch must not exceed the micro-batch bound";
    EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()),
              cfg.serving.maxBatch);
}

TEST(OnlineServer, ZeroRequestsReturnsEmptyReport)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 69);

    const serve::OnlineReport rep = runServer(g, host, onlineConfig(0));
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_EQ(rep.ticks, 0u);
    EXPECT_EQ(rep.makespanMs, 0.0);
    EXPECT_EQ(rep.throughputReqPerSec, 0.0);
    EXPECT_EQ(rep.sloAttainment, 1.0);
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
}

// ------------------------------------------- one lane loop, two fronts

/** The single-device server's run, and the same load served through a
 *  one-variant Engine with a matching VariantLoad. */
struct LanePair
{
    serve::OnlineReport single;
    serve::OnlineReport engine;
    std::vector<double> singleLat, engineLat;
    std::vector<double> singleDelay, engineDelay;
    std::vector<std::size_t> singleBatches, engineBatches;
};

LanePair
runBothFronts(const graph::HeteroGraph &g, const Tensor &features,
              const serve::OnlineConfig &cfg)
{
    LanePair out;
    {
        sim::Runtime rt;
        serve::OnlineServer server(g, features, models::kRgcnSource, cfg,
                                   rt);
        out.single = server.run();
        out.singleLat = server.latenciesMs();
        out.singleDelay = server.queueDelaysMs();
        out.singleBatches = server.batchSizes();
    }
    {
        sim::Runtime rt;
        serve::EngineConfig ec;
        ec.numStreams = cfg.serving.numStreams;
        ec.planBudgetBytes = cfg.serving.planBudgetBytes;
        ec.autotuneSchedules = cfg.serving.autotuneSchedules;
        serve::Engine engine(g, ec, rt);
        engine.registerVariant("rgcn", features, models::kRgcnSource,
                               cfg.serving);
        serve::OnlineConfig mcfg = cfg;
        mcfg.variants.push_back({"rgcn", cfg.arrivalRatePerSec,
                                 cfg.numRequests, cfg.arrivalSeed});
        serve::OnlineServer server(engine, mcfg);
        out.engine = server.run();
        out.engineLat = server.latenciesMs();
        out.engineDelay = server.queueDelaysMs();
        out.engineBatches = server.batchSizes();
    }
    return out;
}

/** Every scalar OnlineReport field, compared exactly. */
void
expectSameScalars(const serve::OnlineReport &a,
                  const serve::OnlineReport &b, const std::string &tag)
{
#define HECTOR_SAME(field) EXPECT_EQ(a.field, b.field) << tag << ": " #field
    HECTOR_SAME(requests);
    HECTOR_SAME(batches);
    HECTOR_SAME(makespanMs);
    HECTOR_SAME(throughputReqPerSec);
    HECTOR_SAME(meanLatencyMs);
    HECTOR_SAME(p50LatencyMs);
    HECTOR_SAME(p95LatencyMs);
    HECTOR_SAME(p99LatencyMs);
    HECTOR_SAME(p999LatencyMs);
    HECTOR_SAME(maxLatencyMs);
    HECTOR_SAME(meanQueueDelayMs);
    HECTOR_SAME(sloAttainment);
    HECTOR_SAME(msPerRequest);
    HECTOR_SAME(cacheHits);
    HECTOR_SAME(cacheMisses);
    HECTOR_SAME(cacheRecompiles);
    HECTOR_SAME(cacheEvictions);
    HECTOR_SAME(cacheResidentBytes);
    HECTOR_SAME(launches);
    HECTOR_SAME(offeredRatePerSec);
    HECTOR_SAME(deadlineMs);
    HECTOR_SAME(ticks);
    HECTOR_SAME(meanBatchSize);
    HECTOR_SAME(peakQueueDepth);
    HECTOR_SAME(lastArrivalMs);
    HECTOR_SAME(devices);
    HECTOR_SAME(haloBytes);
    HECTOR_SAME(interconnectMs);
    HECTOR_SAME(devicesFailed);
    HECTOR_SAME(requestsRerouted);
    HECTOR_SAME(requestsShed);
    HECTOR_SAME(shedFraction);
    HECTOR_SAME(admittedSloAttainment);
    HECTOR_SAME(peakLaneQueueDepth);
    HECTOR_SAME(policy);
    HECTOR_SAME(requestsRetried);
    HECTOR_SAME(requestsHedged);
    HECTOR_SAME(hedgeWins);
    HECTOR_SAME(requestsTimedOut);
    HECTOR_SAME(requestsFailed);
    HECTOR_SAME(breakerOpens);
    HECTOR_SAME(brownoutTicks);
#undef HECTOR_SAME
}

/** The overload scenario of the resilience suite: a 0.3 ms deadline,
 *  a bounded queue and hedging under a 200k req/s burst. */
serve::OnlineConfig
overloadConfig()
{
    serve::OnlineConfig cfg = onlineConfig(64, 200000.0);
    cfg.policy = "adaptive";
    cfg.serving.deadlineMs = 0.3;
    cfg.serving.maxQueueDepth = 12;
    cfg.serving.shed = serve::ShedMode::RejectNewest;
    cfg.serving.resilience.enabled = true;
    cfg.serving.resilience.hedge = true;
    cfg.serving.resilience.hedgeDelayFactor = 1.0;
    cfg.serving.duplicationFraction = 0.5;
    return cfg;
}

TEST(OnlineServer, SingleDeviceMatchesOneVariantEngine)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 71);

    struct Scenario
    {
        std::string name;
        serve::OnlineConfig cfg;
    };
    std::vector<Scenario> scenarios;
    for (const char *policy : {"fixed", "adaptive"}) {
        for (double deadline : {0.0, 0.5}) {
            serve::OnlineConfig cfg = onlineConfig(48, 100000.0);
            cfg.policy = policy;
            cfg.serving.deadlineMs = deadline;
            scenarios.push_back({std::string(policy) + " deadline=" +
                                     std::to_string(deadline),
                                 cfg});
        }
    }
    {
        serve::OnlineConfig cfg = onlineConfig(64, 200000.0);
        cfg.serving.deadlineMs = 0.3;
        cfg.serving.maxQueueDepth = 8;
        cfg.serving.shed = serve::ShedMode::DeadlineInfeasible;
        scenarios.push_back({"shedding", cfg});
    }
    {
        serve::OnlineConfig cfg = onlineConfig(96, 40000.0);
        cfg.serving.maxQueueDepth = 12;
        cfg.serving.shed = serve::ShedMode::RejectNewest;
        cfg.serving.resilience.enabled = true;
        cfg.serving.resilience.hedge = true;
        cfg.serving.resilience.hedgeDelayFactor = 0.5;
        cfg.serving.resilience.brownoutHighWatermark = 1.0;
        scenarios.push_back({"resilience+hedge", cfg});
    }
    scenarios.push_back({"overload", overloadConfig()});

    std::size_t hedged = 0;
    std::size_t shed = 0;
    for (const Scenario &sc : scenarios) {
        const LanePair p = runBothFronts(g, host, sc.cfg);
        hedged += p.single.requestsHedged;
        shed += p.single.requestsShed;
        ASSERT_GT(p.single.requests, 0u) << sc.name;
        EXPECT_EQ(p.singleLat, p.engineLat) << sc.name;
        EXPECT_EQ(p.singleDelay, p.engineDelay) << sc.name;
        EXPECT_EQ(p.singleBatches, p.engineBatches) << sc.name;
        expectSameScalars(p.single, p.engine, sc.name);
        // The single-device lane is unlabelled: no per-variant rows.
        EXPECT_TRUE(p.single.perVariant.empty()) << sc.name;
        EXPECT_EQ(p.engine.perVariant.size(), 1u) << sc.name;
    }
    // The matrix exercised what it claims to.
    EXPECT_GT(hedged, 0u);
    EXPECT_GT(shed, 0u);
}

TEST(OnlineServer, OneLanePeakQueueDepthMatchesLanePeak)
{
    // peakQueueDepth is sampled at every scheduling point, including
    // the ones where the only lane is blocked or still waiting, so on a
    // one-lane run it cannot fall below the lane's own peak.
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 73);
    const LanePair p = runBothFronts(g, host, overloadConfig());
    EXPECT_GT(p.engine.requestsShed, 0u);
    EXPECT_EQ(p.engine.peakQueueDepth, p.engine.peakLaneQueueDepth);
    EXPECT_EQ(p.single.peakQueueDepth, p.single.peakLaneQueueDepth);
}

TEST(MeetsDeadline, OnePredicateJudgesTheBoundary)
{
    // On this pair the seconds form (lat <= D * 1e-3) and the
    // milliseconds form (lat * 1e3 <= D) disagree; every report path
    // uses the milliseconds form through meetsDeadline.
    const double deadline_ms = 0.9395020081555747;
    const double lat_sec = 0.0009395020081555748;
    ASSERT_NE(lat_sec <= deadline_ms * 1e-3, lat_sec * 1e3 <= deadline_ms);
    EXPECT_FALSE(serve::meetsDeadline(lat_sec, deadline_ms));
    EXPECT_TRUE(serve::meetsDeadline(lat_sec, 0.0))
        << "no deadline: every request is on time";
    EXPECT_TRUE(serve::meetsDeadline(0.0005, 0.5));
    EXPECT_FALSE(serve::meetsDeadline(0.0006, 0.5));

    // The per-variant row and the report-level attainment judge a
    // request sitting exactly on that boundary alike.
    std::vector<double> lats{lat_sec, 0.0001};
    const serve::VariantReport vr =
        serve::makeVariantReport("v", lats, deadline_ms);
    serve::ServingReport rep;
    serve::fillLatencyStats(rep, {lat_sec, 0.0001}, {0.0, 0.0},
                            deadline_ms);
    EXPECT_EQ(vr.sloAttainment, 0.5);
    EXPECT_EQ(rep.sloAttainment, vr.sloAttainment);
}

} // namespace
