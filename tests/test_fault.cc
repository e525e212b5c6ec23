/**
 * @file
 * Fault-tolerance tests (sim/fault.hh, serve/sharded.hh, the plan
 * cache's signature checks): the deterministic fault-injection matrix
 * {transient flip, whole-device failure} x {RGAT, RGCN, HGT} x
 * {1, 2, 4 devices} x {1, 2, 4 threads}, asserting recovered outputs
 * are bitwise equal to the fault-free oracle and that the same
 * (seed, schedule) replays an identical event log; checksum and
 * plan-signature detection properties; interconnect accounting
 * properties; and the empty-survivor / last-device-standing edge
 * cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "models/model_sources.hh"
#include "obs/flight_recorder.hh"
#include "obs/trace.hh"
#include "serve/online.hh"
#include "serve/plan_cache.hh"
#include "serve/sharded.hh"
#include "sim/device_group.hh"
#include "sim/fault.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

graph::HeteroGraph
servingGraph(double scale = 1.0 / 16.0)
{
    return graph::generate(graph::datasetSpec("aifb"), scale, 11);
}

Tensor
hostFeatures(const graph::HeteroGraph &g, std::int64_t dim,
             std::uint64_t seed = 21)
{
    std::mt19937_64 rng(seed);
    return Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
}

serve::ServingConfig
servingConfig(std::int64_t dim = 8)
{
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = dim;
    cfg.dout = dim;
    cfg.sample.numSeeds = 8;
    cfg.sample.fanout = 4;
    cfg.seed = 0x60d;
    return cfg;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.numel() * sizeof(float)),
              0);
}

/** Serve @p requests on @p devices shards and return output clones by
 *  id, optionally under a fault injector and into a flight recorder. */
struct DrainRun
{
    std::map<std::uint64_t, Tensor> outputs;
    serve::ShardedReport report;
};

DrainRun
runDrain(const char *source, int devices, std::size_t requests,
         double duplication_fraction, sim::FaultInjector *fi,
         obs::FlightRecorder *fr = nullptr)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.duplicationFraction = duplication_fraction;
    sim::DeviceGroup group(devices);
    if (fi)
        group.setFaultInjector(fi);
    serve::ShardedSession session(g, feats, source, cfg, group);
    session.setFlightRecorder(fr);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < requests; ++i)
        ids.push_back(session.submit());
    DrainRun run;
    run.report = session.drain();
    for (std::uint64_t id : ids) {
        const Tensor *out = session.result(id);
        EXPECT_NE(out, nullptr) << "id " << id;
        if (out)
            run.outputs.emplace(id, out->clone());
    }
    return run;
}

// ------------------------------------------------------------ fault matrix

class FaultMatrix : public ::testing::TestWithParam<const char *>
{
};

/** Transient corruption on every device's first batch, full
 *  duplication: every injected fault is detected, the replayed outputs
 *  are bitwise equal to the fault-free oracle, and the injector's
 *  event log is byte-identical across runs and thread counts. */
TEST_P(FaultMatrix, TransientDetectedAndRecoveredBitIdentical)
{
    const char *source = GetParam();
    const std::size_t requests = 12;
    for (int devices : {1, 2, 4}) {
        const DrainRun oracle =
            runDrain(source, devices, requests, 0.0, nullptr);
        ASSERT_EQ(oracle.outputs.size(), requests);

        std::string first_log;
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            sim::FaultSchedule sched;
            for (int d = 0; d < devices; ++d)
                sched.events.push_back(
                    {sim::FaultKind::TransientCorruption, d, 0.0, 1});
            sim::FaultInjector fi(sched);
            const DrainRun run =
                runDrain(source, devices, requests, 1.0, &fi);

            EXPECT_GE(fi.stats().transientsInjected, 1u);
            EXPECT_EQ(fi.stats().detections,
                      fi.stats().transientsInjected);
            EXPECT_EQ(fi.stats().corruptionsEscaped, 0u);
            EXPECT_EQ(run.report.transientsDetected,
                      fi.stats().detections);
            EXPECT_GT(run.report.duplicatesIssued, 0u);
            EXPECT_GT(run.report.duplicationOverheadPct, 0.0);

            ASSERT_EQ(run.outputs.size(), requests);
            for (const auto &[id, out] : oracle.outputs)
                expectBitIdentical(out, run.outputs.at(id));

            if (first_log.empty())
                first_log = fi.logText();
            else
                EXPECT_EQ(first_log, fi.logText())
                    << "event log diverged at " << threads
                    << " threads";
        }
        util::setGlobalThreads(0);
        EXPECT_FALSE(first_log.empty());
    }
}

/** Whole-device failure mid-drain: the lost batches replay on
 *  survivors bit-identically; with a single device the drain throws
 *  instead of serving from a dead group. */
TEST_P(FaultMatrix, DeviceFailureRecoversBitIdentical)
{
    const char *source = GetParam();
    const std::size_t requests = 12;
    for (int devices : {1, 2, 4}) {
        sim::FaultSchedule sched;
        sched.events.push_back({sim::FaultKind::DeviceFailure,
                                devices - 1, 1.0e-9, 1});
        if (devices == 1) {
            sim::FaultInjector fi(sched);
            const graph::HeteroGraph g = servingGraph();
            const Tensor feats = hostFeatures(g, 8);
            serve::ShardedConfig cfg;
            cfg.serving = servingConfig(8);
            sim::DeviceGroup group(1);
            group.setFaultInjector(&fi);
            serve::ShardedSession session(g, feats, source, cfg,
                                          group);
            for (std::size_t i = 0; i < requests; ++i)
                session.submit();
            EXPECT_THROW(session.drain(), std::runtime_error);
            continue;
        }

        const DrainRun oracle =
            runDrain(source, devices, requests, 0.0, nullptr);
        std::string first_log;
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            sim::FaultInjector fi(sched);
            const DrainRun run =
                runDrain(source, devices, requests, 0.0, &fi);

            EXPECT_EQ(fi.stats().failuresInjected, 1u);
            EXPECT_EQ(run.report.devicesFailed, 1);
            ASSERT_EQ(run.outputs.size(), requests);
            for (const auto &[id, out] : oracle.outputs)
                expectBitIdentical(out, run.outputs.at(id));
            // Work the failed device owned either replayed mid-cycle
            // or was rerouted by the pre-serve quarantine.
            if (oracle.report
                    .perDeviceRequests[static_cast<std::size_t>(
                        devices - 1)] > 0) {
                EXPECT_GT(run.report.requestsReplayed +
                              run.report.requestsRerouted,
                          0u);
            }

            if (first_log.empty())
                first_log = fi.logText();
            else
                EXPECT_EQ(first_log, fi.logText())
                    << "event log diverged at " << threads
                    << " threads";
        }
        util::setGlobalThreads(0);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, FaultMatrix,
                         ::testing::Values(models::kRgatSource,
                                           models::kRgcnSource,
                                           models::kHgtSource));

// ------------------------------------------------------- injector basics

TEST(FaultInjector, ScheduleValidationRejectsNonsense)
{
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::TransientCorruption, -1, 0.0, 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::TransientCorruption, 0, 0.0, 0});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back(
            {sim::FaultKind::DeviceFailure, 0, -1.0, 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
    {
        sim::FaultSchedule s;
        s.events.push_back({sim::FaultKind::DeviceFailure, 0,
                            std::nan(""), 1});
        EXPECT_THROW(sim::FaultInjector fi(s), std::runtime_error);
    }
}

TEST(FaultInjector, ArmTransientTargetsThePrimaryOrdinal)
{
    sim::FaultSchedule s;
    s.events.push_back({sim::FaultKind::TransientCorruption, 0, 0.0, 2});
    s.events.push_back({sim::FaultKind::TransientCorruption, 1, 0.0, 1});
    sim::FaultInjector fi(s);
    EXPECT_FALSE(fi.armTransient(0)); // ordinal 1
    EXPECT_TRUE(fi.armTransient(0));  // ordinal 2: targeted
    EXPECT_FALSE(fi.armTransient(0)); // event consumed
    EXPECT_TRUE(fi.armTransient(1));
    EXPECT_EQ(fi.batchOrdinal(0), 3u);
    EXPECT_EQ(fi.batchOrdinal(1), 1u);

    fi.reset();
    EXPECT_FALSE(fi.armTransient(0));
    EXPECT_TRUE(fi.armTransient(0));
}

TEST(FaultInjector, FailureScheduleFiresOnceAndIsIdempotent)
{
    sim::FaultSchedule s;
    s.events.push_back({sim::FaultKind::DeviceFailure, 2, 0.5, 1});
    sim::FaultInjector fi(s);
    EXPECT_FALSE(fi.failureDue(2, 0.4));
    EXPECT_TRUE(fi.failureDue(2, 0.5));
    EXPECT_FALSE(fi.isFailed(2));
    fi.markFailed(2, 0.5);
    EXPECT_TRUE(fi.isFailed(2));
    EXPECT_EQ(fi.failedCount(), 1);
    fi.markFailed(2, 0.6); // idempotent
    EXPECT_EQ(fi.stats().failuresInjected, 1u);
    // Fired events stop being due.
    EXPECT_FALSE(fi.failureDue(2, 1.0));
}

// --------------------------------------------------- checksum properties

/** Every injected single-element corruption — randomized positions,
 *  modes and magnitudes, including sign flips and one-ulp steps —
 *  changes the tensor checksum. */
TEST(Checksum, DetectsEveryInjectedCorruption)
{
    sim::FaultSchedule s; // no events needed: corrupt() is direct
    sim::FaultInjector fi(s);
    std::mt19937_64 rng(0xc0de);
    for (int iter = 0; iter < 500; ++iter) {
        const std::int64_t rows = 1 + static_cast<std::int64_t>(
                                          rng() % 7);
        const std::int64_t cols = 1 + static_cast<std::int64_t>(
                                          rng() % 9);
        Tensor t = Tensor::uniform({rows, cols}, rng, 1.0f);
        const std::uint64_t clean = tensor::checksum(t);
        const sim::FaultInjector::Corruption c =
            fi.corrupt(t, 0, 0.0);
        EXPECT_NE(tensor::checksum(t), clean)
            << "iter " << iter << " mode " << c.mode << " index "
            << c.index;
    }
    EXPECT_EQ(fi.stats().transientsInjected, 500u);
}

TEST(Checksum, SignFlipOfZeroAndOneUlpAreVisible)
{
    Tensor t = Tensor::zeros({2, 2});
    const std::uint64_t clean = tensor::checksum(t);
    t.data()[3] = -0.0f; // +0 -> -0: equal under ==, not under bytes
    EXPECT_NE(tensor::checksum(t), clean);

    Tensor u = Tensor::zeros({1, 3});
    u.data()[1] = 1.0f;
    const std::uint64_t base = tensor::checksum(u);
    u.data()[1] = std::nextafterf(1.0f, 2.0f);
    EXPECT_NE(tensor::checksum(u), base);
}

/** 10k clean batches: recomputing the checksum of an untouched (or
 *  cloned) tensor never reports a mismatch — zero false positives. */
TEST(Checksum, NoFalsePositivesOnCleanBatches)
{
    std::mt19937_64 rng(0xfa15e);
    for (int iter = 0; iter < 10000; ++iter) {
        Tensor t = Tensor::uniform({4, 4}, rng, 1.0f);
        const std::uint64_t a = tensor::checksum(t);
        EXPECT_EQ(a, tensor::checksum(t));
        EXPECT_EQ(a, tensor::checksum(t.clone()));
    }
}

/** Served-output checksums are a pure function of the request stream:
 *  identical across 1/2/4 threads (deterministic reductions). */
TEST(Checksum, OutputChecksumsStableAcrossThreadCounts)
{
    std::vector<std::uint64_t> sums;
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        const DrainRun run =
            runDrain(models::kRgatSource, 2, 8, 0.0, nullptr);
        std::uint64_t h = 0;
        for (const auto &[id, out] : run.outputs)
            h ^= tensor::checksum(out) + id;
        sums.push_back(h);
    }
    util::setGlobalThreads(0);
    EXPECT_EQ(sums[0], sums[1]);
    EXPECT_EQ(sums[0], sums[2]);
}

// ----------------------------------------------- plan-signature checks

TEST(PlanSignature, StableAcrossCompilesAndThreadCounts)
{
    const graph::HeteroGraph g = servingGraph();
    const serve::PlanKey key = serve::makePlanKey(
        models::kRgcnSource, 8, 8, core::CompileOptions{}, g);
    std::vector<std::uint64_t> sigs;
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        serve::PlanCache cache;
        auto plan = cache.get(key);
        ASSERT_NE(plan, nullptr);
        sigs.push_back(serve::planSignature(*plan));
        EXPECT_EQ(cache.signatureOf(key), sigs.back());
        EXPECT_NE(sigs.back(), 0u);
    }
    util::setGlobalThreads(0);
    EXPECT_EQ(sigs[0], sigs[1]);
    EXPECT_EQ(sigs[0], sigs[2]);
}

/** A tampered resident plan is caught on the next hit, discarded and
 *  recompiled; the recompiled entry verifies clean afterwards. */
TEST(PlanSignature, TamperedPlanIsDetectedAndRecompiled)
{
    const graph::HeteroGraph g = servingGraph();
    const serve::PlanKey key = serve::makePlanKey(
        models::kRgatSource, 8, 8, core::CompileOptions{}, g);
    serve::PlanCache cache;
    cache.get(key);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.get(key);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().signatureChecks, 1u);
    EXPECT_EQ(cache.stats().signatureMismatches, 0u);

    ASSERT_TRUE(cache.tamperForTest(key));
    cache.get(key);
    EXPECT_EQ(cache.stats().signatureMismatches, 1u);
    EXPECT_EQ(cache.stats().recompiles, 1u);

    cache.get(key);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().signatureMismatches, 1u);
    EXPECT_FALSE(cache.tamperForTest(serve::PlanKey{})); // not resident
}

// ------------------------------------------- interconnect accounting

/** Per-directed-link busy-until clocks are monotone non-decreasing and
 *  completions never precede readiness, under randomized traffic. */
TEST(Interconnect, BusyUntilMonotoneUnderRandomTraffic)
{
    sim::Interconnect ic(4, sim::InterconnectSpec{});
    std::mt19937_64 rng(0x11c);
    std::vector<double> last(16, 0.0);
    double charged = 0.0;
    for (int iter = 0; iter < 2000; ++iter) {
        const int src = static_cast<int>(rng() % 4);
        const int dst = static_cast<int>(rng() % 4);
        const double bytes =
            static_cast<double>(rng() % 1000000);
        const double ready =
            static_cast<double>(rng() % 1000) * 1e-6;
        const double done = ic.transfer(src, dst, bytes, ready);
        EXPECT_GE(done, ready);
        if (src == dst) {
            EXPECT_DOUBLE_EQ(done, ready); // local copy is free
            continue;
        }
        charged += bytes;
        const std::size_t link = static_cast<std::size_t>(src) * 4 +
                                 static_cast<std::size_t>(dst);
        const double busy = ic.linkBusyUntilSec(src, dst);
        EXPECT_DOUBLE_EQ(busy, done);
        EXPECT_GE(busy, last[link]);
        last[link] = busy;
    }
    EXPECT_DOUBLE_EQ(ic.totalBytes(), charged);
}

/** Charging the full-graph halo exchange link by link moves exactly
 *  the bytes graph::haloMatrix predicts. */
TEST(Interconnect, TotalBytesMatchHaloMatrixTotals)
{
    const graph::HeteroGraph g = servingGraph();
    graph::PartitionSpec ps;
    ps.numShards = 4;
    const graph::Partition p = graph::partitionGraph(g, ps);
    const std::vector<std::int64_t> halo = graph::haloMatrix(g, p);
    const double row_bytes = 8.0 * sizeof(float);

    sim::Interconnect ic(4, sim::InterconnectSpec{});
    double expected = 0.0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            const double bytes =
                static_cast<double>(
                    halo[static_cast<std::size_t>(i) * 4 +
                         static_cast<std::size_t>(j)]) *
                row_bytes;
            if (i == j) {
                EXPECT_EQ(bytes, 0.0); // diagonal is zero
                continue;
            }
            ic.transfer(i, j, bytes, 0.0);
            expected += bytes;
        }
    EXPECT_GT(expected, 0.0);
    EXPECT_DOUBLE_EQ(ic.totalBytes(), expected);
}

// --------------------------------------------------------- edge cases

/** Three of four devices quarantined: serving degrades to the last
 *  survivor — queued work re-routes there and a full drain completes
 *  with a finite report (no divide-by-zero, no hang). */
TEST(FaultEdgeCases, LastDeviceStandingServesEverything)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    sim::DeviceGroup group(4);
    serve::ShardedSession session(g, feats, models::kRgcnSource, cfg,
                                  group);

    const DrainRun oracle =
        runDrain(models::kRgcnSource, 4, 10, 0.0, nullptr);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(session.submit());
    std::size_t rerouted = 0;
    for (int d = 1; d < 4; ++d)
        rerouted += session.quarantine(d, 0.0).size();
    EXPECT_EQ(session.aliveCount(), 1);
    EXPECT_EQ(session.queuedOn(0), ids.size());

    const serve::ShardedReport rep = session.drain();
    EXPECT_EQ(rep.requests, ids.size());
    EXPECT_EQ(rep.devicesFailed, 3);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.msPerRequest));
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
    EXPECT_TRUE(std::isfinite(rep.throughputReqPerSec));
    EXPECT_GE(rerouted, 1u);

    // Degraded-mode outputs still match the healthy oracle bitwise.
    for (std::uint64_t id : ids) {
        const Tensor *out = session.result(id);
        ASSERT_NE(out, nullptr);
        expectBitIdentical(oracle.outputs.at(id), *out);
    }

    // Serving a quarantined device directly is an error.
    EXPECT_THROW(session.serveOldestOn(2, 1), std::runtime_error);
}

/** Quarantining the last device with queued work must throw, not hang
 *  or divide by zero. */
TEST(FaultEdgeCases, EmptySurvivorSetThrows)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    sim::DeviceGroup group(4);
    serve::ShardedSession session(g, feats, models::kRgatSource, cfg,
                                  group);
    for (int i = 0; i < 8; ++i)
        session.submit();
    for (int d = 0; d < 3; ++d)
        session.quarantine(d, 0.0);
    EXPECT_THROW(session.quarantine(3, 0.0), std::runtime_error);
    // Submitting to a fully dead group throws too (routing has no
    // candidate), rather than queueing work that can never be served.
    EXPECT_THROW(session.submit(), std::runtime_error);
}

/** Every request of the failed device replayed after its deadline:
 *  the report stays finite and SLO attainment stays within [0, 1]. */
TEST(FaultEdgeCases, ReportFiniteWhenAllReplaysMissDeadline)
{
    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, 1, 1.0e-9, 1});
    sim::FaultInjector fi(sched);

    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::ShardedConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.deadlineMs = 1.0e-6; // everything is late
    sim::DeviceGroup group(2);
    group.setFaultInjector(&fi);
    serve::ShardedSession session(g, feats, models::kHgtSource, cfg,
                                  group);
    for (int i = 0; i < 10; ++i)
        session.submit();
    const serve::ShardedReport rep = session.drain();
    EXPECT_EQ(rep.requests, 10u);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
    EXPECT_TRUE(std::isfinite(rep.p99LatencyMs));
    EXPECT_TRUE(std::isfinite(rep.meanQueueDelayMs));
    EXPECT_GE(rep.sloAttainment, 0.0);
    EXPECT_LE(rep.sloAttainment, 1.0);
}

// -------------------------------------------------- duplication sampling

/** Error-diffusion sampling duplicates within one batch of the exact
 *  fraction, with no RNG. */
TEST(Duplication, SamplingTracksConfiguredFraction)
{
    const DrainRun run =
        runDrain(models::kRgcnSource, 2, 16, 0.5, nullptr);
    EXPECT_GT(run.report.batches, 0u);
    const double expect =
        0.5 * static_cast<double>(run.report.batches);
    EXPECT_LE(std::abs(static_cast<double>(
                  run.report.duplicatesIssued) -
              expect),
              1.0);
    EXPECT_EQ(run.report.transientsDetected, 0u); // clean run
    EXPECT_GT(run.report.duplicationOverheadPct, 0.0);
    EXPECT_LT(run.report.duplicationOverheadPct, 100.0);
}

// -------------------------------------------------------- online failure

/** A device failure under open-loop load: the server quarantines it,
 *  keeps serving on survivors, and outputs stay bit-identical to the
 *  fault-free online run. */
TEST(OnlineFaults, DeviceFailureServesAllRequestsBitIdentical)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor feats = hostFeatures(g, 8);
    serve::OnlineConfig cfg;
    cfg.serving = servingConfig(8);
    cfg.serving.seed = 0x777;
    cfg.arrivalRatePerSec = 3000.0;
    cfg.numRequests = 24;
    cfg.retainResults = true;

    sim::DeviceGroup oracle_group(4);
    serve::OnlineServer oracle(g, feats, models::kRgatSource, cfg,
                               oracle_group);
    oracle.run();

    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, 1, 1.0e-9, 1});
    sim::FaultInjector fi(sched);
    sim::DeviceGroup group(4);
    group.setFaultInjector(&fi);
    serve::OnlineServer server(g, feats, models::kRgatSource, cfg,
                               group);
    const serve::OnlineReport rep = server.run();

    EXPECT_EQ(rep.requests, 24u);
    EXPECT_EQ(rep.devicesFailed, 1);
    EXPECT_TRUE(std::isfinite(rep.makespanMs));
    EXPECT_TRUE(std::isfinite(rep.p99LatencyMs));
    for (std::uint64_t id = 1; id <= 24; ++id) {
        const Tensor *a = oracle.sharded().result(id);
        const Tensor *b = server.sharded().result(id);
        ASSERT_NE(a, nullptr) << "id " << id;
        ASSERT_NE(b, nullptr) << "id " << id;
        expectBitIdentical(*a, *b);
    }
}

// ------------------------------------------- failures late in the drain

/** The modeled time of every flight @p what event on @p device. */
std::vector<double>
eventsOn(const obs::FlightRecorder &fr, const char *what, int device)
{
    std::vector<double> times;
    for (std::uint64_t id : fr.requests())
        for (const obs::FlightEvent &e : *fr.timeline(id))
            if (e.what == what && e.device == device)
                times.push_back(e.tSec);
    return times;
}

double
latest(const std::vector<double> &times)
{
    return times.empty() ? 0.0
                         : *std::max_element(times.begin(), times.end());
}

/** All 24 requests served bitwise-equal to the fault-free oracle. */
void
expectAllServedBitIdentical(const DrainRun &oracle, const DrainRun &run)
{
    ASSERT_EQ(oracle.outputs.size(), 24u);
    ASSERT_EQ(run.outputs.size(), 24u);
    for (const auto &[id, out] : oracle.outputs)
        expectBitIdentical(out, run.outputs.at(id));
}

/** The latest-finishing device of a fault-free 4-device RGAT drain and
 *  a failure time calibrated from its flight timelines: the other
 *  devices' last completion plus 20% of the gap to its own. Its last
 *  batch then finishes after the failure, while every other device
 *  has already finished. */
struct LateFailure
{
    int device = 0;
    double tFail = 0.0;
};

LateFailure
calibrateLateFailure()
{
    obs::FlightRecorder fr;
    runDrain(models::kRgatSource, 4, 24, 0.0, nullptr, &fr);
    LateFailure late;
    double others = 0.0;
    for (int d = 1; d < 4; ++d)
        if (latest(eventsOn(fr, "completion", d)) >
            latest(eventsOn(fr, "completion", late.device)))
            late.device = d;
    for (int d = 0; d < 4; ++d)
        if (d != late.device)
            others = std::max(others, latest(eventsOn(fr, "completion", d)));
    const double own = latest(eventsOn(fr, "completion", late.device));
    EXPECT_GT(own, others);
    late.tFail = others + 0.2 * (own - others);
    return late;
}

/** A device that fails after every other device has finished but
 *  before its own last batch does is still quarantined at its failure
 *  time: the lost batch replays on a survivor, never on the dead
 *  device. */
TEST(FaultLateInDrain, LatestFinisherFailureIsQuarantined)
{
    const DrainRun oracle =
        runDrain(models::kRgatSource, 4, 24, 0.0, nullptr);
    const LateFailure late = calibrateLateFailure();

    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, late.device, late.tFail, 1});
    sim::FaultInjector fi(sched);
    obs::FlightRecorder fr;
    const DrainRun run =
        runDrain(models::kRgatSource, 4, 24, 0.0, &fi, &fr);

    EXPECT_EQ(run.report.devicesFailed, 1);
    EXPECT_TRUE(fi.isFailed(late.device));
    EXPECT_EQ(run.report.requests, 24u);
    EXPECT_GT(run.report.requestsReplayed, 0u);
    expectAllServedBitIdentical(oracle, run);
    EXPECT_LE(latest(eventsOn(fr, "completion", late.device)), late.tFail);
    EXPECT_TRUE(eventsOn(fr, "reroute", late.device).empty())
        << "lost requests must not route back to the failed device";
}

/** The survivor a lost batch replays on fails during that replay: the
 *  replay obeys the same lost-batch rule, so its batch moves on to a
 *  third device and both failed devices stay quarantined. */
TEST(FaultLateInDrain, SurvivorFailingDuringReplayIsQuarantined)
{
    const DrainRun oracle =
        runDrain(models::kRgatSource, 4, 24, 0.0, nullptr);
    const LateFailure late = calibrateLateFailure();
    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, late.device, late.tFail, 1});

    // Calibrate the second failure from the one-failure run: the first
    // re-routed request's replay start and its completion.
    int survivor = -1;
    double replay_start = 0.0;
    double replay_done = 0.0;
    {
        sim::FaultInjector fi(sched);
        obs::FlightRecorder fr;
        runDrain(models::kRgatSource, 4, 24, 0.0, &fi, &fr);
        for (std::uint64_t id : fr.requests()) {
            for (const obs::FlightEvent &e : *fr.timeline(id)) {
                if (e.what == "replay" && survivor < 0) {
                    survivor = e.device;
                    replay_start = e.tSec;
                }
                if (e.what == "completion" && e.device == survivor)
                    replay_done = e.tSec;
            }
            if (survivor >= 0)
                break;
        }
    }
    ASSERT_GE(survivor, 0);
    ASSERT_NE(survivor, late.device);
    ASSERT_GT(replay_done, replay_start);
    const double t_fail2 =
        replay_start + 0.2 * (replay_done - replay_start);
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, survivor, t_fail2, 1});

    for (int threads : {1, 4}) {
        util::setGlobalThreads(threads);
        sim::FaultInjector fi(sched);
        obs::FlightRecorder fr;
        const DrainRun run =
            runDrain(models::kRgatSource, 4, 24, 0.0, &fi, &fr);

        EXPECT_EQ(run.report.devicesFailed, 2);
        EXPECT_TRUE(fi.isFailed(late.device));
        EXPECT_TRUE(fi.isFailed(survivor));
        EXPECT_EQ(run.report.requests, 24u);
        expectAllServedBitIdentical(oracle, run);
        EXPECT_LE(latest(eventsOn(fr, "completion", late.device)), late.tFail);
        EXPECT_LE(latest(eventsOn(fr, "completion", survivor)), t_fail2);
        EXPECT_TRUE(eventsOn(fr, "reroute", late.device).empty());
        // Only the first failure's routing may target the survivor.
        for (double t : eventsOn(fr, "reroute", survivor))
            EXPECT_EQ(t, late.tFail);
    }
    util::setGlobalThreads(0);
}

// ------------------------------------------- drain trace + flight golden

/**
 * One sharded drain under a transient (device 0's first batch, caught
 * by full duplication) and an ordinary mid-drain failure (the busiest
 * device dies halfway between its first and last completion, while
 * other devices are still serving), captured as text: the
 * deterministic trace export, every request's flight timeline, and the
 * injector's event log.
 */
std::string
tracedDrainCapture()
{
    const char *source = models::kRgatSource;
    // Calibrate the failure from the fault-free timeline.
    obs::FlightRecorder clean;
    runDrain(source, 4, 24, 1.0, nullptr, &clean);
    int busiest = 0;
    for (int d = 1; d < 4; ++d)
        if (eventsOn(clean, "completion", d).size() >
            eventsOn(clean, "completion", busiest).size())
            busiest = d;
    const std::vector<double> times = eventsOn(clean, "completion", busiest);
    const double first = *std::min_element(times.begin(), times.end());
    const double t_fail = first + 0.5 * (latest(times) - first);

    sim::FaultSchedule sched;
    sched.events.push_back(
        {sim::FaultKind::TransientCorruption, 0, 0.0, 1});
    sched.events.push_back(
        {sim::FaultKind::DeviceFailure, busiest, t_fail, 1});
    sim::FaultInjector fi(sched);
    obs::FlightRecorder fr;
    obs::setDeterministic(true);
    obs::tracer().clear();
    obs::setEnabled(true);
    const DrainRun run = runDrain(source, 4, 24, 1.0, &fi, &fr);
    obs::setEnabled(false);
    std::string out = obs::tracer().exportJson();
    obs::tracer().clear();

    EXPECT_EQ(run.report.devicesFailed, 1);
    EXPECT_EQ(run.report.transientsDetected, 1u);
    EXPECT_GT(run.report.requestsReplayed, 1u);
    expectAllServedBitIdentical(runDrain(source, 4, 24, 0.0, nullptr),
                                run);
    out += "\n";
    for (std::uint64_t id : fr.requests())
        out += fr.timelineJson(id) + "\n";
    return out + fi.logText();
}

/** The drain's trace and flight output at 1 and 4 threads is
 *  byte-identical to the checked-in capture. On a mismatch the actual
 *  capture is written next to the test binary for diffing. */
TEST(ShardedDrainTrace, MatchesGoldenCaptureAtOneAndFourThreads)
{
    const std::string path =
        std::string(HECTOR_TEST_GOLDEN_DIR) + "/sharded_drain_trace.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    for (int threads : {1, 4}) {
        util::setGlobalThreads(threads);
        const std::string actual = tracedDrainCapture();
        if (actual != golden.str()) {
            std::ofstream("sharded_drain_trace.actual.txt") << actual;
            ADD_FAILURE() << "capture at " << threads
                          << " threads differs from " << path
                          << "; actual written to "
                             "sharded_drain_trace.actual.txt";
        }
    }
    util::setGlobalThreads(0);
}

} // namespace
