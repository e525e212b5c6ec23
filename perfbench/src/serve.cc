/**
 * @file
 * The serving workloads, `serve-small` and `serve-mix`: neighbourhood
 * queries served through serve::Engine. A seeded Poisson schedule is
 * replayed as an open loop at a fixed rate, followed by a saturated
 * closed-loop phase. The generator and the server share the one
 * calling thread; the engine's kernels use the process's default
 * thread pool. Each request is sampled when it arrives and timed from
 * the moment it was due, so a stall is charged to every request queued
 * behind it.
 */

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <thread>

#include "bench_util.hh"
#include "core/compiler.hh"
#include "core/frontend.hh"
#include "core/jit.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
#include "models/model_sources.hh"
#include "models/reference.hh"
#include "serve/engine.hh"
#include "serve/micro_batch.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace hector;

struct VariantDef
{
    const char *name;
    models::ModelKind kind;
    const char *source;
    /** Share of the arrivals sent to this variant. */
    double share;
};

struct Spec
{
    const char *dataset;
    double scale;
    std::int64_t dim;
    graph::SampleSpec sample;
    std::size_t maxBatch;
    /** Fixed open-loop arrival rate, requests per second. */
    double rate;
    std::vector<VariantDef> variants;
    /** Size the plan budget to hold every variant but the last. */
    bool tightBudget;
    /**
     * Kernel thread-pool size; 0 keeps the process default. serve-small
     * runs on one thread: its kernels are too small to split, and at
     * the default four threads on a shared 4-vCPU host every
     * fork/join waits for the most-delayed vCPU: the interquartile
     * spread of its median latency was 27% of the median over ten seeds
     * at four threads and 8% over six seeds on one thread.
     */
    int threads;
};

Spec
specFor(const Options &opt)
{
    Spec s;
    if (opt.workload == "serve-small") {
        s = {"bgs", 1.0 / 256.0, 64, {16, 4}, 8, 1000.0,
             {{"rgat", models::ModelKind::Rgat, models::kRgatSource, 1.0}},
             false, 1};
    } else {
        s = {"mag", 1.0 / 64.0, 64, {64, 8}, 8, 120.0,
             {{"rgcn", models::ModelKind::Rgcn, models::kRgcnSource, 0.7},
              {"rgat", models::ModelKind::Rgat, models::kRgatSource, 0.2},
              {"hgt", models::ModelKind::Hgt, models::kHgtSource, 0.1}},
             true, 0};
    }
    if (opt.toy) {
        s.scale /= 8.0;
        s.dim = 16;
        s.rate /= 4.0;
    }
    return s;
}

/** One request the bench prepared: sampled subgraph and features. */
struct Prepared
{
    graph::Minibatch mb;
    tensor::Tensor feature;
};

/** A request kept for the oracle check; its features are gathered
 *  again from the host tensor when it is checked. */
struct Checked
{
    int variant;
    graph::Minibatch mb;
    tensor::Tensor output;
};

/** A request queued in the engine, as the bench tracks it. */
struct Pending
{
    std::uint64_t id;
    double due;
    bool check;
    std::unique_ptr<Prepared> copy;
};

/** A batch kept for the traced run's per-call replay. */
struct Replay
{
    int variant;
    std::vector<Prepared> requests;
};

struct State
{
    graph::HeteroGraph g;
    sim::Runtime rt;
    std::vector<tensor::Tensor> hostFeatures;
    std::unique_ptr<serve::Engine> engine;

    State(graph::HeteroGraph graph, double scale)
        : g(std::move(graph)), rt(sim::makeScaledSpec(scale))
    {}
};

/** Per-layer samples, collected in traced blocks only. */
struct LayerSamples
{
    std::vector<double> sampleUs, transferUs, nodes;
    std::vector<double> queueWaitMs, batchHitMs, batchMissMs, batchSize;
    std::vector<double> genLagMs;
    std::uint64_t hits = 0, lookups = 0, recompiles = 0, evictions = 0;
};

class Server
{
  public:
    Server(const Options &opt, const Spec &spec, State &st, Tracer &tr,
           Result &r)
        : opt_(opt), spec_(spec), st_(st), tr_(tr), r_(r)
    {
        for (const VariantDef &v : spec.variants)
            shares_.push_back(v.share);
        queues_.resize(spec.variants.size());
    }

    /** Sample request @p idx on variant @p v at arrival and submit it. */
    void
    arrive(std::uint64_t idx, int v, double due, bool traced_block)
    {
        const bool check = checkStride_ > 0 && idx < checkEnd_ &&
                           (idx + mix64(opt_.seed)) % checkStride_ == 0;
        Scope arrival(tr_, "arrival", idx);
        std::mt19937_64 rng(mix64(opt_.seed ^ 0x5a3b1e ^ (idx << 8)));
        std::unique_ptr<Prepared> p;
        double t_sample = 0.0, t_transfer = 0.0;
        t_sample = timeSec([&]() {
            Scope s(tr_, "graph.sample", idx);
            graph::Minibatch mb =
                graph::sampleNeighbors(st_.g, spec_.sample, rng);
            p = std::make_unique<Prepared>(Prepared{std::move(mb), {}});
        });
        t_transfer = timeSec([&]() {
            Scope s(tr_, "graph.transfer", idx);
            auto scope = st_.rt.memoryScope();
            p->feature = graph::transferFeatures(
                p->mb, st_.hostFeatures[static_cast<std::size_t>(v)], st_.rt);
        });
        // Deep copies, made outside the device's memory scope so they
        // never count against the modeled device. Traced blocks copy
        // every request, so any batch can be replayed whole.
        std::unique_ptr<Prepared> copy;
        if (check || traced_block)
            copy = std::make_unique<Prepared>(
                Prepared{p->mb, p->feature.clone()});
        const auto nodes = static_cast<double>(p->mb.subgraph.numNodes());
        std::uint64_t id = 0;
        {
            Scope s(tr_, "serve.submit", idx);
            id = st_.engine->submit(v, std::move(p->mb),
                                    std::move(p->feature));
        }
        if (traced_block) {
            layer_.sampleUs.push_back(t_sample * 1e6);
            layer_.transferUs.push_back(t_transfer * 1e6);
            layer_.nodes.push_back(nodes);
        }
        queues_[static_cast<std::size_t>(v)].push_back(
            {id, due, check, std::move(copy)});
        ++r_.attempted;
    }

    /** Variant whose oldest queued request is the oldest; -1 if idle. */
    int
    oldestVariant() const
    {
        int best = -1;
        for (std::size_t v = 0; v < queues_.size(); ++v)
            if (!queues_[v].empty() &&
                (best < 0 || queues_[v].front().due <
                                 queues_[static_cast<std::size_t>(best)]
                                     .front()
                                     .due))
                best = static_cast<int>(v);
        return best;
    }

    /** Serve one batch of variant @p v; returns requests completed. */
    std::size_t
    serveBatch(int v, bool traced_block, std::vector<double> *latencies)
    {
        auto &q = queues_[static_cast<std::size_t>(v)];
        const serve::PlanCache::Stats before =
            st_.engine->planCache().stats();
        const std::uint64_t batch_id = ++batches_;
        Scope span(tr_, "serve.batch", batch_id);
        const double t0 = nowSec();
        const serve::BatchCost cost =
            st_.engine->serveOldest(v, spec_.maxBatch);
        const double t1 = nowSec();
        const serve::PlanCache::Stats &after =
            st_.engine->planCache().stats();
        const bool hit = after.hits > before.hits;
        const bool replay_batch = traced_block && wantReplay();
        Replay replay{v, {}};
        for (std::size_t i = 0; i < cost.requests; ++i) {
            Pending p = std::move(q.front());
            q.pop_front();
            const tensor::Tensor *out = st_.engine->result(p.id);
            if (!out || cost.servedIds[i] != p.id) {
                ++r_.failed;
                continue;
            }
            if (latencies)
                latencies->push_back((t1 - p.due) * 1e3);
            if (traced_block) {
                layer_.queueWaitMs.push_back((t0 - p.due) * 1e3);
                tr_.async("request", p.id, span.index(), p.due, t1);
                tr_.async("serve.queue_wait", p.id, span.index(), p.due,
                          t0);
            }
            if (p.copy && p.check)
                checked_.push_back({v, p.copy->mb, out->clone()});
            if (replay_batch && p.copy)
                replay.requests.push_back(std::move(*p.copy));
        }
        st_.engine->clearResults();
        if (!replay.requests.empty())
            replays_.push_back(std::move(replay));
        if (traced_block) {
            (hit ? layer_.batchHitMs : layer_.batchMissMs)
                .push_back((t1 - t0) * 1e3);
            layer_.batchSize.push_back(static_cast<double>(cost.requests));
            layer_.hits += after.hits - before.hits;
            layer_.lookups += (after.hits - before.hits) +
                              (after.misses - before.misses) +
                              (after.recompiles - before.recompiles);
            layer_.recompiles += after.recompiles - before.recompiles;
            layer_.evictions += after.evictions - before.evictions;
        }
        return cost.requests;
    }

    /**
     * Replay @p n Poisson arrivals from request index @p first as an
     * open loop; returns each request's latency from its due time.
     */
    std::vector<double>
    openLoop(std::uint64_t first, std::uint64_t n, bool traced)
    {
        tr_.setOn(traced);
        std::mt19937_64 rng(mix64(opt_.seed ^ 0xa771 ^ first));
        std::exponential_distribution<double> gap(spec_.rate);
        std::discrete_distribution<int> pick(shares_.begin(), shares_.end());
        std::vector<double> due(n);
        std::vector<int> variant(n);
        double t = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            t += gap(rng);
            due[i] = t;
            variant[i] = pick(rng);
        }

        std::vector<double> latencies;
        latencies.reserve(n);
        const double w0 = nowSec();
        {
        Scope phase(tr_, "phase.open_loop");
        const double base = nowSec() + 1e-3;
        std::uint64_t next = 0;
        for (;;) {
            const double now = nowSec();
            while (next < n && base + due[next] <= now) {
                if (traced)
                    layer_.genLagMs.push_back(
                        (nowSec() - base - due[next]) * 1e3);
                allLag_.push_back((nowSec() - base - due[next]) * 1e3);
                arrive(first + next, variant[next], base + due[next],
                       traced);
                ++next;
            }
            const int v = oldestVariant();
            if (v >= 0) {
                serveBatch(v, traced, &latencies);
                continue;
            }
            if (next >= n)
                break;
            waitUntil(base + due[next]);
        }
        }
        if (traced)
            tracedWall_ += nowSec() - w0;
        tr_.setOn(false);
        return latencies;
    }

    /**
     * Saturated closed loop for @p seconds: a client sends a full
     * batch of queries to one variant (drawn by the mix's shares) and
     * waits for them to be served, repeatedly. Returns the median over
     * windows of about kWindowSec of requests completed per second.
     */
    double
    saturated(std::uint64_t first, double seconds, bool traced)
    {
        tr_.setOn(traced);
        std::mt19937_64 rng(mix64(opt_.seed ^ 0x5a7 ^ first));
        std::discrete_distribution<int> pick(shares_.begin(), shares_.end());
        const double t0 = nowSec();
        std::uint64_t idx = first;
        std::vector<double> rates;
        {
        Scope phase(tr_, "phase.saturated");
        double w0 = t0;
        std::uint64_t done = 0;
        for (;;) {
            const int variant = pick(rng);
            for (std::size_t i = 0; i < spec_.maxBatch; ++i) {
                arrive(idx, variant, nowSec(), traced);
                ++idx;
            }
            for (int v = oldestVariant(); v >= 0; v = oldestVariant())
                done += serveBatch(v, traced, nullptr);
            const double t = nowSec();
            if (t - w0 >= std::min(kWindowSec, seconds)) {
                rates.push_back(static_cast<double>(done) / (t - w0));
                w0 = t;
                done = 0;
                if (t - t0 >= seconds)
                    break;
            }
        }
        }
        if (traced)
            tracedWall_ += nowSec() - t0;
        tr_.setOn(false);
        nextIndex_ = idx;
        return median(rates);
    }

    /** Check about @p count requests evenly spread over the request
     *  indices below @p end. */
    void
    sampleChecks(std::uint64_t end, std::uint64_t count)
    {
        checkEnd_ = end;
        checkStride_ = std::max<std::uint64_t>(1, (end + count - 1) / count);
    }

    std::uint64_t nextIndex() const { return nextIndex_; }
    const LayerSamples &layer() const { return layer_; }
    const std::vector<double> &allLag() const { return allLag_; }
    std::vector<Checked> &checked() { return checked_; }
    std::vector<Replay> &replays() { return replays_; }
    /** Wall time of the traced blocks, measured outside the tracer. */
    double tracedWall() const { return tracedWall_; }

  private:
    static constexpr std::size_t kMaxReplays = 48;
    static constexpr double kWindowSec = 0.5;

    /** About one traced batch in eight, up to kMaxReplays, is kept
     *  for the replay. */
    bool
    wantReplay() const
    {
        return replays_.size() < kMaxReplays &&
               mix64(opt_.seed ^ (batches_ * 0x9e37)) % 8 == 0;
    }

    static void
    waitUntil(double t)
    {
        const double ahead = t - nowSec();
        if (ahead > 3e-4)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ahead - 2e-4));
        while (nowSec() < t) {
        }
    }

    const Options &opt_;
    const Spec &spec_;
    State &st_;
    Tracer &tr_;
    Result &r_;
    std::vector<double> shares_;
    std::vector<std::deque<Pending>> queues_;
    std::uint64_t batches_ = 0;
    std::uint64_t nextIndex_ = 0;
    std::uint64_t checkEnd_ = 0;
    std::uint64_t checkStride_ = 0;
    double tracedWall_ = 0.0;
    LayerSamples layer_;
    std::vector<double> allLag_;
    std::vector<Checked> checked_;
    std::vector<Replay> replays_;
};

/**
 * Graph generation, engine construction and warm-up (which compiles
 * and JIT-builds every variant's plan through the engine). The graph
 * is the dataset's fixed stand-in; the workload seed draws features,
 * weights, arrivals, variant choices and sampled neighbourhoods.
 */
std::unique_ptr<State>
setUp(const Options &opt, const Spec &spec, Tracer &tr, Result &r)
{
    auto st = std::make_unique<State>(
        graph::generate(graph::datasetSpec(spec.dataset), spec.scale),
        spec.scale);
    st->engine = std::make_unique<serve::Engine>(
        st->g, serve::EngineConfig{}, st->rt);
    std::mt19937_64 rng(mix64(opt.seed ^ 0xfea7));
    for (const VariantDef &v : spec.variants) {
        st->hostFeatures.push_back(
            tensor::Tensor::uniform({st->g.numNodes(), spec.dim}, rng, 0.5f));
        serve::ServingConfig cfg;
        cfg.maxBatch = spec.maxBatch;
        cfg.sample = spec.sample;
        cfg.din = spec.dim;
        cfg.dout = spec.dim;
        cfg.seed = mix64(opt.seed ^ 0x5e12e);
        st->engine->registerVariant(v.name, st->hostFeatures.back(),
                                    v.source, cfg);
    }
    // Warm every variant up once, rarest last, then size the budget.
    Result scratch;
    Server warm(opt, spec, *st, tr, scratch);
    std::uint64_t idx = std::uint64_t{1} << 40;
    for (std::size_t v = 0; v < spec.variants.size(); ++v) {
        for (std::size_t i = 0; i < spec.maxBatch; ++i)
            warm.arrive(idx++, static_cast<int>(v), nowSec(), false);
        warm.serveBatch(static_cast<int>(v), false, nullptr);
    }
    if (spec.tightBudget) {
        serve::PlanCache &pc = st->engine->planCache();
        std::size_t popular = 0, rare = 0;
        for (std::size_t v = 0; v < spec.variants.size(); ++v) {
            const std::size_t c =
                pc.costOf(st->engine->planKey(static_cast<int>(v)));
            (v + 1 < spec.variants.size() ? popular : rare) += c;
        }
        pc.setBudgetBytes(popular + rare / 2);
        r.note("plan_budget_bytes", std::to_string(popular + rare / 2));
    }
    (void)warm.saturated(idx, opt.toy ? 0.05 : 0.3, false);
    return st;
}

/** Served requests compared against the reference per run. */
constexpr std::uint64_t kCheckedRequests = 64;

bool
matchesReference(const Spec &spec, const State &st, const Checked &c,
                 const models::WeightMap &weights, double &max_diff)
{
    const auto v = static_cast<std::size_t>(c.variant);
    const tensor::Tensor feature =
        graph::gatherFeatures(c.mb, st.hostFeatures[v]);
    const tensor::Tensor expect = models::referenceForward(
        spec.variants[v].kind, c.mb.subgraph, weights, feature);
    return matchesOracle(c.output, expect, max_diff);
}

} // namespace

Result
runServe(const Options &opt)
{
    const Spec spec = specFor(opt);
    if (spec.threads > 0)
        util::setGlobalThreads(spec.threads);
    Result r;
    r.note("dataset", jstr(spec.dataset));
    r.note("scale", jnum(spec.scale));
    r.note("dim", std::to_string(spec.dim));
    r.note("rate_rps", jnum(spec.rate));
    r.note("max_batch", std::to_string(spec.maxBatch));
    r.note("seeds_per_query", std::to_string(spec.sample.numSeeds));
    r.note("fanout", std::to_string(spec.sample.fanout));
    r.note("loop", jstr("open (Poisson, fixed rate), then saturated "
                        "closed loop"));

    Tracer tr;
    // Cold set-ups, as in fullgraph; the last one is kept.
    std::vector<double> setups;
    std::unique_ptr<State> st;
    core::jit::JitStats jit0{};
    for (int i = 0; i < kSetups; ++i) {
        st.reset();
        emptyJitDir();
        jit0 = core::jit::jitStats();
        const double t0 = nowSec();
        Result scratch;
        st = setUp(opt, spec, tr, i + 1 == kSetups ? r : scratch);
        setups.push_back(nowSec() - t0);
    }
    reportSetup(r, setups);
    r.note("nodes", std::to_string(st->g.numNodes()));
    r.note("edges", std::to_string(st->g.numEdges()));

    Server srv(opt, spec, *st, tr, r);
    const double open_s = opt.seconds * 0.7;
    const double sat_s = opt.seconds * 0.3;
    const auto open_n = static_cast<std::uint64_t>(
        std::max(1.0, open_s * spec.rate));
    // The oracle checks a seeded, evenly spread sample of the open-loop
    // requests (their copies are the benchmark's only sizeable memory).
    srv.sampleChecks(open_n, kCheckedRequests);

    serve::PlanCache &pc = st->engine->planCache();
    const serve::PlanCache::Stats cache0 = pc.stats();
    sim::CounterBucket cat0[5];
    for (int c = 0; c < 5; ++c)
        cat0[c] = st->rt.counters().categoryTotal(
            static_cast<sim::KernelCategory>(c));

    std::vector<double> latencies;
    double thr_plain = 0.0, thr_traced = 0.0, sat_modeled_ms = 0.0;
    if (!opt.trace) {
        latencies = srv.openLoop(0, open_n, false);
        // Modeled time and the device peak are taken over the saturated
        // phase, whose batches are all full, so they do not hinge on how
        // the open loop's timing happened to batch requests.
        st->rt.tracker().resetStats();
        const double modeled0 = st->rt.totalTimeSec();
        const std::uint64_t sat0 = r.attempted;
        thr_plain = srv.saturated(open_n, sat_s, false);
        sat_modeled_ms = (st->rt.totalTimeSec() - modeled0) * 1e3 /
                         static_cast<double>(r.attempted - sat0);
    } else {
        // Untraced and traced halves of each phase, for the overhead.
        latencies = srv.openLoop(0, open_n / 2, false);
        (void)srv.openLoop(open_n / 2, open_n / 2, true);
        thr_plain = srv.saturated(open_n, sat_s / 2, false);
        thr_traced = srv.saturated(srv.nextIndex(), sat_s / 2, true);
    }

    // Oracle: a seeded sample of served requests against the reference
    // on each request's own subgraph, with the variant's weights.
    double max_diff = 0.0;
    for (const Checked &c : srv.checked()) {
        if (!matchesReference(spec, *st, c, st->engine->weights(c.variant),
                              max_diff)) {
            ++r.failed;
            ++r.mismatches;
        }
    }
    r.note("checked_requests", std::to_string(srv.checked().size()));
    r.note("oracle_max_abs_diff", jnum(max_diff));
    r.note("resident_plans", std::to_string(pc.size()));

    if (!opt.trace) {
        r.set("latency_ms_p50", percentile(latencies, 0.50), "ms");
        r.set("throughput_per_s", thr_plain, "1/s");
        r.set("modeled_ms", sat_modeled_ms / spec.scale, "ms");
        r.set("peak_mem_mb",
              static_cast<double>(st->rt.tracker().peakBytes()) /
                  spec.scale / 1e6,
              "MB");
        // Tails are recorded, not printed as metrics: host CPU steal
        // moves them several-fold from run to run (see README.md).
        const Tail tail = tailOf(latencies);
        r.note("latency_ms_p99", jnum(percentile(latencies, 0.99)));
        r.note("latency_ms_tail", jnum(tail.value));
        r.note("latency_ms_tail_pct", jnum(tail.pct));
        r.note("latency_samples", std::to_string(latencies.size()));
        r.note("gen_lag_ms_p99", jnum(percentile(srv.allLag(), 0.99)));
        return r;
    }

    const LayerSamples &L = srv.layer();
    r.set("graph.sample_us_p50", percentile(L.sampleUs, 0.5), "us");
    r.set("graph.sample_us_p99", percentile(L.sampleUs, 0.99), "us");
    r.set("graph.transfer_us_p50", percentile(L.transferUs, 0.5), "us");
    r.set("graph.transfer_us_p99", percentile(L.transferUs, 0.99), "us");
    r.set("graph.sampled_nodes", mean(L.nodes), "count");
    r.set("serve.queue_wait_ms_p50", percentile(L.queueWaitMs, 0.5), "ms");
    r.set("serve.queue_wait_ms_p99", percentile(L.queueWaitMs, 0.99), "ms");
    r.set("serve.batch_ms.hit", median(L.batchHitMs), "ms");
    r.set("serve.batch_ms.miss", median(L.batchMissMs), "ms");
    r.set("serve.batch_size", mean(L.batchSize), "count");
    r.set("serve.plan_hit_ratio",
          L.lookups ? static_cast<double>(L.hits) /
                          static_cast<double>(L.lookups)
                    : 0.0,
          "ratio");
    r.set("serve.recompiles", static_cast<double>(L.recompiles), "count");
    r.set("serve.evictions", static_cast<double>(L.evictions), "count");
    r.set("serve.resident_bytes",
          static_cast<double>(pc.stats().residentBytes), "B");
    r.set("bench.gen_lag_ms_p99", percentile(L.genLagMs, 0.99), "ms");
    r.set("obs.trace_overhead_pct", (thr_plain / thr_traced - 1.0) * 100.0,
          "%");
    r.note("cache_misses", std::to_string(pc.stats().misses - cache0.misses));

    // Kernel counters per request, over the whole measurement.
    const double n_req = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
    for (int c = 0; c < 5; ++c) {
        const auto cat = static_cast<sim::KernelCategory>(c);
        const sim::CounterBucket b = st->rt.counters().categoryTotal(cat);
        std::string name = sim::toString(cat);
        std::transform(name.begin(), name.end(), name.begin(), ::tolower);
        r.set("sim." + name + ".launches",
              static_cast<double>(b.launches - cat0[c].launches) / n_req,
              "count");
        r.set("sim." + name + ".bytes",
              (b.bytesRead + b.bytesWritten - cat0[c].bytesRead -
               cat0[c].bytesWritten) /
                  n_req,
              "B");
        r.set("sim." + name + ".modeled_ms",
              (b.timeSec - cat0[c].timeSec) * 1e3 / n_req, "ms");
        if (cat == sim::KernelCategory::Gemm)
            r.set("sim.gemm.flops", (b.flops - cat0[c].flops) / n_req,
                  "FLOP");
    }

    // Replays of a sample of the traced batches through the public
    // calls serveOldest makes, to explain serve.batch_ms. They run on a
    // scratch runtime and a bench-owned plan cache after the engine is
    // gone, so they perturb neither the measurement nor the engine.
    std::vector<serve::PlanKey> keys;
    std::vector<models::WeightMap> weights;
    for (int v = 0; v < st->engine->numVariants(); ++v) {
        keys.push_back(st->engine->planKey(v));
        weights.push_back(st->engine->weights(v));
    }
    const core::jit::JitStats jit1 = core::jit::jitStats();
    st->engine.reset();

    double compile_s = 0.0, attach_s = 0.0;
    std::vector<std::shared_ptr<core::CompiledModel>> probes;
    for (const serve::PlanKey &k : keys) {
        auto plan = std::make_shared<core::CompiledModel>();
        compile_s += timeSec([&]() {
            *plan = core::compile(
                core::parseModel(k.modelSource, k.din, k.dout), k.options);
        });
        attach_s += timeSec([&]() { core::jit::attach(*plan); });
        probes.push_back(plan);
    }
    r.set("core.compile_ms", compile_s * 1e3, "ms");
    r.set("core.jit_attach_ms", attach_s * 1e3, "ms");
    r.set("core.jit.compiles",
          static_cast<double>(jit1.compiles - jit0.compiles), "count");
    r.set("core.jit.cache_hits",
          static_cast<double>(jit1.cacheHits - jit0.cacheHits), "count");
    r.set("core.jit.fallbacks",
          static_cast<double>(jit1.fallbacks - jit0.fallbacks), "count");
    for (const char *n : {"rgcn", "rgat", "hgt"}) {
        double kernels = 0.0;
        for (std::size_t v = 0; v < spec.variants.size(); ++v)
            if (std::string(spec.variants[v].name) == n)
                kernels = static_cast<double>(probes[v]->forwardKernels());
        r.set(std::string("core.kernels.") + n, kernels, "count");
    }

    sim::Runtime scratch_rt(st->rt.spec());
    serve::PlanCache bench_cache;
    std::vector<core::ExecutionContext> ctxs(keys.size());
    std::vector<models::WeightMap> grads(keys.size());
    for (const serve::PlanKey &k : keys)
        (void)bench_cache.get(k);
    std::vector<double> coalesce_us, get_us, exec_ms, gemm_flops_per_s;
    double exec_wall = 0.0, exec_gemm = 0.0, exec_modeled = 0.0;
    for (Replay &rep : srv.replays()) {
        const auto v = static_cast<std::size_t>(rep.variant);
        std::vector<serve::Request> reqs;
        reqs.reserve(rep.requests.size());
        std::uint64_t id = 0;
        for (Prepared &p : rep.requests)
            reqs.emplace_back(++id, p.mb, p.feature,
                              static_cast<std::uint32_t>(v));
        std::vector<const serve::Request *> ptrs;
        for (const serve::Request &q : reqs)
            ptrs.push_back(&q);
        auto scope = scratch_rt.memoryScope();
        std::unique_ptr<serve::MicroBatch> batch;
        coalesce_us.push_back(1e6 * timeSec([&]() {
            batch = std::make_unique<serve::MicroBatch>(
                serve::coalesce(ptrs, scratch_rt));
        }));
        std::shared_ptr<const core::CompiledModel> plan;
        get_us.push_back(1e6 * timeSec([&]() { plan = bench_cache.get(keys[v]); }));
        const double f0 = scratch_rt.counters()
                              .categoryTotal(sim::KernelCategory::Gemm)
                              .flops;
        const double m0 = scratch_rt.totalTimeSec();
        const double w = timeSec([&]() {
            (void)serve::executeBatch(*plan, *batch, weights[v], scratch_rt,
                                      ctxs[v], grads[v], true);
        });
        exec_ms.push_back(w * 1e3);
        exec_wall += w;
        exec_gemm += scratch_rt.counters()
                         .categoryTotal(sim::KernelCategory::Gemm)
                         .flops -
                     f0;
        exec_modeled += scratch_rt.totalTimeSec() - m0;
    }
    r.set("serve.coalesce_us", median(coalesce_us), "us");
    r.set("serve.plan_get_us", median(get_us), "us");
    r.set("serve.execute_ms", median(exec_ms), "ms");
    r.set("tensor.gemm_gflops", exec_wall > 0 ? exec_gemm / exec_wall / 1e9 : 0.0,
          "GFLOP/s");
    r.set("sim.modeled_over_wall",
          exec_wall > 0 ? exec_modeled / exec_wall : 0.0, "ratio");
    r.note("replayed_batches", std::to_string(srv.replays().size()));
    r.note("self_time_s", jnum(tr.totalSelfTime()));
    r.note("self_time_s_by_span", jobject(tr.selfTimeByName()));
    r.note("traced_wall_s", jnum(srv.tracedWall()));
    if (!opt.outDir.empty())
        tr.writeJson(opt.outDir + "/trace_" + opt.workload + ".json");
    return r;
}

} // namespace perfbench
