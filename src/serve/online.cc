#include "serve/online.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <numbers>
#include <set>
#include <stdexcept>

#include "serve/resilience.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"

namespace hector::serve
{

// ------------------------------------------------------------ LoadGenerator

LoadGenerator::LoadGenerator(double rate_per_sec, std::size_t count,
                             std::uint64_t seed, const MmppSpec &mmpp,
                             const DiurnalSpec &diurnal)
    : ratePerSec_(rate_per_sec), left_(count), rng_(seed), mmpp_(mmpp),
      diurnal_(diurnal)
{
    if (rate_per_sec <= 0.0)
        throw std::runtime_error("LoadGenerator: rate must be positive");
    if (mmpp_.enabled && mmpp_.burstRateMultiplier <= 0.0)
        throw std::runtime_error(
            "LoadGenerator: mmpp.burstRateMultiplier must be positive");
    if (diurnal_.enabled &&
        (!(diurnal_.amplitude >= 0.0) || diurnal_.amplitude >= 1.0))
        throw std::runtime_error(
            "LoadGenerator: diurnal.amplitude must be in [0, 1)");
    if (diurnal_.enabled && !(diurnal_.periodSec > 0.0))
        throw std::runtime_error(
            "LoadGenerator: diurnal.periodSec must be positive");
    if (left_ > 0)
        advance();
}

LoadGenerator::LoadGenerator(std::vector<double> times_sec)
    : ratePerSec_(1.0), left_(times_sec.size()), rng_(0),
      trace_(std::move(times_sec))
{
    double prev = 0.0;
    for (double t : trace_) {
        if (!(t >= prev)) // also rejects NaN
            throw std::invalid_argument(
                "LoadGenerator: trace timestamps must be non-negative "
                "and non-decreasing");
        prev = t;
    }
    if (left_ > 0)
        advance();
}

std::vector<double>
LoadGenerator::loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("LoadGenerator::loadTrace: cannot open " +
                                 path);
    std::vector<double> times;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos || line[b] == '#')
            continue;
        const std::size_t e = line.find_last_not_of(" \t\r");
        const std::string tok = line.substr(b, e - b + 1);
        std::size_t pos = 0;
        double t = 0.0;
        try {
            t = std::stod(tok, &pos);
        } catch (const std::exception &) {
            pos = 0;
        }
        if (pos != tok.size() || !std::isfinite(t))
            throw std::runtime_error(
                "LoadGenerator::loadTrace: malformed timestamp at " +
                path + ":" + std::to_string(lineno));
        times.push_back(t);
    }
    return times;
}

double
LoadGenerator::nextU()
{
    // Inverse-CDF uniform over the raw 64-bit stream instead of
    // std::*_distribution: the sequence is bit-stable across standard
    // libraries, and u is rate-independent, so equal seeds give
    // arrival times that scale exactly by 1/rate.
    return (static_cast<double>(rng_() >> 11) + 0.5) *
           (1.0 / 9007199254740992.0); // 2^-53, u in (0, 1)
}

void
LoadGenerator::advance()
{
    if (!trace_.empty()) {
        nextSec_ = trace_[traceIdx_++];
        return;
    }
    const double u = nextU();
    // Pure Poisson draws exactly one uniform per gap (the historical
    // stream, bit-identical); MMPP draws the gap at the CURRENT
    // state's rate, then one extra uniform to decide the state the
    // next gap is drawn in.
    double rate = mmpp_.enabled && burst_
                      ? ratePerSec_ * mmpp_.burstRateMultiplier
                      : ratePerSec_;
    // Diurnal modulation composes multiplicatively on top of the MMPP
    // state; amplitude < 1 keeps the instantaneous rate positive.
    // Disabled, the expression above is untouched — the historical
    // arrival stream stays bit-identical.
    if (diurnal_.enabled)
        rate *= 1.0 + diurnal_.amplitude *
                          std::sin(2.0 * std::numbers::pi * nextSec_ /
                                   diurnal_.periodSec);
    nextSec_ += -std::log(1.0 - u) / rate;
    if (mmpp_.enabled) {
        const double v = nextU();
        if (burst_ ? v < mmpp_.pExitBurst : v < mmpp_.pEnterBurst)
            burst_ = !burst_;
    }
}

double
LoadGenerator::peekSec() const
{
    if (done())
        throw std::runtime_error("LoadGenerator: exhausted");
    return nextSec_;
}

double
LoadGenerator::next()
{
    const double t = peekSec();
    --left_;
    if (left_ > 0)
        advance();
    return t;
}

std::vector<double>
LoadGenerator::arrivals(double rate_per_sec, std::size_t count,
                        std::uint64_t seed, const MmppSpec &mmpp)
{
    LoadGenerator gen(rate_per_sec, count, seed, mmpp);
    std::vector<double> times;
    times.reserve(count);
    while (!gen.done())
        times.push_back(gen.next());
    return times;
}

// ------------------------------------------------------------- OnlineServer

namespace
{

/** Arrival time and request id of one queued arrival (FIFO entries of
 *  the tick loop; the id attributes flight-recorder lifecycle events
 *  to the backend-assigned request). */
struct QueuedArrival
{
    double arrivalSec = 0.0;
    std::uint64_t id = 0;
    /** Failed attempts so far (resilience retry bookkeeping). */
    int attempts = 0;
    /** Earliest time a retried request may be served (backoff hold). */
    double notBeforeSec = 0.0;
};

/** Index of the least-busy entry of @p free_at other than @p skip
 *  (ties to the lower index); -1 when there is none. */
int
leastLoaded(const std::vector<double> &free_at, int skip = -1)
{
    int best = -1;
    for (std::size_t i = 0; i < free_at.size(); ++i)
        if (static_cast<int>(i) != skip &&
            (best < 0 ||
             free_at[i] < free_at[static_cast<std::size_t>(best)]))
            best = static_cast<int>(i);
    return best;
}

/** Modeled timeline of one batch placed on a device's clocks. */
struct Placed
{
    double issueDone = 0.0;
    /** Inputs resident: issue end, or the last halo row's arrival. */
    double commDone = 0.0;
    double execStart = 0.0;
    double execDone = 0.0;
    /** Outputs resident on the all-gather root. */
    double done = 0.0;
    /** The outputs travelled to another device (all-gather). */
    bool gathered = false;
};

/**
 * Open-loop clocks of one device: one host thread issues launches
 * (hostFree), each stream runs one batch at a time (streamFree), and
 * the serialized fraction of every kernel occupies a device-wide
 * shared resource (contendFree) — Runtime::makespanSec's overlap rule,
 * applied per batch. The engine backend runs one, whose issuing thread
 * is also the admission thread; the sharded backend runs one per
 * device, with hostFree as that device's driver thread.
 */
struct OpenLoopClock
{
    std::vector<double> streamFree;
    double hostFree = 0.0;
    double contendFree = 0.0;
    double serialFrac = 0.0;

    OpenLoopClock(int num_streams, double serial_frac)
        : streamFree(static_cast<std::size_t>(num_streams), 0.0),
          serialFrac(serial_frac)
    {}

    int pickStream() const { return leastLoaded(streamFree); }

    /** Serialize @p overhead_sec of launches on the issuing thread,
     *  starting no earlier than @p not_before; returns issue end. */
    double
    launch(double overhead_sec, double not_before)
    {
        hostFree = std::max(hostFree, not_before) + overhead_sec;
        return hostFree;
    }

    /** Execute @p exec_sec on @p stream once @p p's inputs are
     *  resident (its commDone); fills its execStart and execDone. */
    void
    run(double exec_sec, int stream, Placed &p)
    {
        double &sf = streamFree[static_cast<std::size_t>(stream)];
        p.execStart = std::max(p.commDone, std::max(sf, contendFree));
        p.execDone = p.execStart + exec_sec;
        sf = p.execDone;
        contendFree = p.execStart + serialFrac * exec_sec;
    }
};

/** The single-session arrival process: @p cfg's trace when one is set,
 *  else its seeded Poisson/MMPP/diurnal process (none when
 *  numRequests is 0). */
LoadGenerator
sessionArrivals(const OnlineConfig &cfg)
{
    if (!cfg.arrivalTrace.empty() || cfg.numRequests == 0)
        return LoadGenerator(cfg.arrivalTrace);
    return LoadGenerator(cfg.arrivalRatePerSec, cfg.numRequests,
                         cfg.arrivalSeed, cfg.serving.mmpp,
                         cfg.serving.diurnal);
}

/** One lane's LaneSpec from its ServingConfig + the run's OnlineConfig
 *  — the single place the policy layer learns a lane's knobs. */
LaneSpec
laneSpecFrom(const std::string &name, const ServingConfig &scfg,
             const OnlineConfig &cfg)
{
    LaneSpec spec;
    spec.name = name;
    spec.maxBatch = std::max<std::size_t>(1, scfg.maxBatch);
    spec.deadlineSec = scfg.deadlineMs * 1e-3;
    spec.fixedBatch = std::min(
        spec.maxBatch,
        cfg.fixedBatch > 0 ? cfg.fixedBatch : spec.maxBatch);
    spec.weight = scfg.tenantWeight;
    spec.tier = scfg.tenantTier;
    spec.maxQueueDepth = scfg.maxQueueDepth;
    spec.shed = scfg.shed;
    spec.ewmaAlpha = cfg.ewmaAlpha;
    spec.budgetFraction = cfg.deadlineBudgetFraction;
    return spec;
}

/** Lane with the oldest head-of-line arrival — the forced-progress
 *  fallback when a (custom) policy returns -1 with no arrivals left. */
int
oldestLane(const std::vector<LaneView> &views)
{
    int best = -1;
    for (std::size_t i = 0; i < views.size(); ++i) {
        if (views[i].queueDepth == 0)
            continue;
        if (best < 0 ||
            views[i].headArrivalSec <
                views[static_cast<std::size_t>(best)].headArrivalSec)
            best = static_cast<int>(i);
    }
    return best;
}

/** Record one shed arrival: flight-recorder lifecycle ("arrival" ->
 *  "shed" with the policy's reason), metrics counter, trace instant. */
void
recordShed(obs::FlightRecorder *flight, std::uint64_t id,
           double arrival_sec, int device, const char *reason,
           const std::string &variant)
{
    if (flight) {
        flight->event(id, "arrival", arrival_sec, device,
                      variant.empty() ? std::string()
                                      : "variant=" + variant);
        flight->event(id, "shed", arrival_sec, device,
                      std::string("reason=") + reason);
    }
    if (obs::enabled()) {
        obs::metrics().counter("online.requests_shed").inc();
        obs::tracer().instant("shed", "online", arrival_sec, device, 0,
                              std::string("\"reason\":\"") + reason +
                                  "\"");
    }
}

/** Copy a run's resilience counters into its report (no-op without a
 *  manager, keeping the no-resilience report bytes untouched). */
void
applyResilienceStats(OnlineReport &rep, const ResilienceManager *resil)
{
    if (!resil)
        return;
    const ResilienceStats &s = resil->stats();
    rep.requestsRetried = s.requestsRetried;
    rep.requestsHedged = s.requestsHedged;
    rep.hedgeWins = s.hedgeWins;
    rep.requestsTimedOut = s.requestsTimedOut;
    rep.requestsFailed = s.requestsFailed;
    rep.breakerOpens = s.breakerOpens;
    rep.brownoutTicks = s.brownoutTicks;
}

/** Throw early (at construction) on a policy name the registry cannot
 *  resolve, instead of failing mid-run. */
void
validatePolicyName(const OnlineConfig &cfg)
{
    if (!cfg.makePolicy && !cfg.policy.empty() &&
        !schedulerPolicyRegistered(cfg.policy))
        throw std::invalid_argument(
            "OnlineServer: unknown scheduling policy '" + cfg.policy +
            "'");
}

/** The cost model the single-device and sharded lanes share. */
AdaptiveBatcher
sharedBatcher(const OnlineConfig &cfg)
{
    return AdaptiveBatcher(std::max<std::size_t>(1, cfg.serving.maxBatch),
                           cfg.serving.deadlineMs * 1e-3, cfg.ewmaAlpha,
                           cfg.deadlineBudgetFraction,
                           cfg.serving.maxQueueDepth > 0 &&
                               cfg.serving.shed != ShedMode::None);
}

/** The single-device server's engine: @p cfg is validated first, so a
 *  bad config throws before any engine state is built, then served as
 *  the one variant "default". */
std::unique_ptr<Engine>
defaultEngine(const graph::HeteroGraph &g, tensor::Tensor host_features,
              std::string model_source, const ServingConfig &cfg,
              sim::Runtime &rt)
{
    validateServingConfig(cfg, "OnlineServer");
    auto eng = std::make_unique<Engine>(g, engineConfigFor(cfg), rt);
    eng->registerVariant("default", std::move(host_features),
                         std::move(model_source), cfg);
    return eng;
}

/**
 * The one open-loop tick loop of every serving mode. Each pass admits
 * (or sheds) the arrivals the clock has reached, fails fast the heads
 * that can no longer meet their deadline, and lets the policy pick a
 * lane, jumping the clock to the next arrival or backoff expiry when
 * none is ready. The picked lane then ticks: brownout, one
 * policy-sized micro-batch, an optional hedge of its head, placement
 * on the modeled clocks, and one completion record per request.
 *
 * A lane is a queue the policy picks from: one per engine variant, or
 * one per device of a sharded session. The virtual hooks are what
 * differs between those two backends (EngineLoop, ShardedLoop).
 */
class TickLoop
{
  public:
    TickLoop(const OnlineConfig &cfg, obs::FlightRecorder *flight)
        : cfg_(cfg), flight_(flight)
    {
        rep_.deadlineMs = cfg.serving.deadlineMs;
    }
    virtual ~TickLoop() = default;
    TickLoop(const TickLoop &) = delete;
    TickLoop &operator=(const TickLoop &) = delete;

    /** Serve every arrival to completion under @p policy, built over
     *  `setup`. */
    OnlineReport run(std::unique_ptr<SchedulerPolicy> policy);

    /** The policy's view of the lanes, in lane order. */
    PolicySetup setup;

    /** Per-request latencies and queueing delays (ms) and per-tick
     *  micro-batch sizes of the run. */
    std::vector<double> latenciesMs;
    std::vector<double> queueDelaysMs;
    std::vector<std::size_t> batchSizes;

  protected:
    struct Lane
    {
        /** Variant name in traces, flight details and perVariant rows;
         *  empty on unlabelled lanes, which report none. */
        std::string label;
        double deadlineMs = 0.0;
        int device = 0;
        std::deque<QueuedArrival> queued;
        std::vector<double> latencies; ///< seconds, completion order
        std::size_t shed = 0;
    };

    using SubmitInfo = ShardedSession::SubmitInfo;

    /** Where a hedge copy of a lane's head runs. */
    struct HedgeTarget
    {
        int device = 0;
        int stream = 0;
    };

    /** Append a lane on @p device with @p scfg's knobs, announced to
     *  the policy as @p name. */
    void
    addLane(std::string label, const std::string &name,
            const ServingConfig &scfg, int device)
    {
        Lane ln;
        ln.label = std::move(label);
        ln.deadlineMs = scfg.deadlineMs;
        ln.device = device;
        lanes_.push_back(std::move(ln));
        setup.lanes.push_back(laneSpecFrom(name, scfg, cfg_));
        rep_.deadlineMs = std::max(rep_.deadlineMs, scfg.deadlineMs);
        brownoutBound_ = std::max(brownoutBound_, scfg.maxQueueDepth);
    }

    /** Count one admitted request of lane @p l failed by resilience. */
    void
    noteFailed(std::size_t l)
    {
        ++failed_;
        if (lanes_[l].deadlineMs > 0.0)
            anyDeadline_ = true;
    }

    /// @name Backend hooks.
    /// @{
    /** Admission horizon: every arrival at or before it is admitted. */
    virtual double now() const = 0;
    virtual void advanceTo(double t) = 0;
    virtual std::size_t queued() const = 0;
    virtual std::uint64_t reserveId() = 0;
    /** Sample, transfer and enqueue one arrival of arrivals_[@p src];
     *  a routed request's lane is the device it was routed to. */
    virtual SubmitInfo submit(std::size_t src) = 0;
    virtual void dropOldest(std::size_t l) = 0;
    /** Fire due device failures and refresh the routing mask. */
    virtual void pollFailures() {}
    virtual void setDuplicationScale(double scale) = 0;
    virtual void clearResults() = 0;
    virtual int pickStream(std::size_t l) const = 0;
    /** Where to hedge lane @p l's head (primary on @p stream); false
     *  when there is no second stream or device to run it on. */
    virtual bool hedgeTarget(std::size_t l, int stream,
                             HedgeTarget &out) const = 0;
    virtual ShardBatch serveOldest(std::size_t l, std::size_t n,
                                   int stream) = 0;
    virtual ShardBatch hedgeOldest(std::size_t l, HedgeTarget t) = 0;
    /** Charge @p b, served on @p device's @p stream, to the clocks. */
    virtual Placed place(const ShardBatch &b, int device, int stream) = 0;
    /** Backend counters of the run: cache stats, launches, links. */
    virtual void finish(OnlineReport &rep) = 0;
    /// @}

    const OnlineConfig &cfg_;
    obs::FlightRecorder *flight_;
    /** Open-loop arrival processes: arrivals_[i] feeds lane i, or,
     *  when routed_, arrivals_[0] feeds every lane and submit() picks
     *  each admitted request's lane. */
    std::vector<LoadGenerator> arrivals_;
    bool routed_ = false;
    std::vector<Lane> lanes_;
    OnlineReport rep_;
    std::unique_ptr<ResilienceManager> resil_;
    /** The admission thread's clock; submit transfers serialize on it. */
    double hostFree_ = 0.0;

  private:
    void admit();
    void failfast();
    std::vector<LaneView> laneViews() const;
    /** The next arrival, else the earliest backoff-hold expiry; +inf
     *  when there is neither. */
    double nextWake() const;
    void tick(std::size_t l, const LaneView &view);

    std::unique_ptr<SchedulerPolicy> policy_;
    std::size_t brownoutBound_ = 0;
    std::size_t served_ = 0;
    std::size_t shed_ = 0;
    std::size_t failed_ = 0;
    /** Served requests that met their lane's deadline. */
    std::size_t met_ = 0;
    bool anyDeadline_ = false;
    double lastCompletion_ = 0.0;
    std::vector<double> latenciesSec_;
    std::vector<double> queueDelaysSec_;
};

// Admit (or shed) every arrival the admission horizon has passed,
// across sources in global time order; each admitted request pays its
// modeled host-to-device transfer on the serialized admission clock,
// while shed arrivals never sample, never transfer, and never touch a
// queue.
void
TickLoop::admit()
{
    while (true) {
        const double t = now();
        std::size_t l = arrivals_.size();
        for (std::size_t i = 0; i < arrivals_.size(); ++i)
            if (!arrivals_[i].done() && arrivals_[i].peekSec() <= t &&
                (l == arrivals_.size() ||
                 arrivals_[i].peekSec() < arrivals_[l].peekSec()))
                l = i;
        if (l == arrivals_.size())
            break;
        const double arr = arrivals_[l].next();
        rep_.lastArrivalMs = std::max(rep_.lastArrivalMs, arr * 1e3);
        // A routed arrival is judged against the whole backlog as lane
        // 0 (one variant, one bound); a lane's own, against its queue.
        const std::deque<QueuedArrival> &q = lanes_[l].queued;
        LaneView view;
        view.queueDepth = routed_ ? queued() : q.size();
        view.headArrivalSec =
            routed_ || q.empty() ? arr : q.front().arrivalSec;
        view.moreArrivals = !arrivals_[l].done();
        const AdmitDecision dec = policy_->admit(l, view, arr, t);
        if (!dec.admit) {
            ++shed_;
            if (lanes_[l].deadlineMs > 0.0)
                anyDeadline_ = true;
            recordShed(flight_, reserveId(), arr,
                       routed_ ? -1 : lanes_[l].device, dec.reason,
                       routed_ ? std::string() : lanes_[l].label);
            if (routed_)
                continue;
            ++lanes_[l].shed;
            if (resil_)
                resil_->noteFailure(l, t, "shed");
            continue;
        }
        const SubmitInfo a = submit(l);
        if (routed_)
            l = static_cast<std::size_t>(a.device);
        if (resil_)
            resil_->noteAdmit(l);
        hostFree_ = std::max(hostFree_, arr) + a.transferSec;
        Lane &ln = lanes_[l];
        if (flight_) {
            flight_->event(a.id, "arrival", arr, ln.device,
                           ln.label.empty() ? std::string()
                                            : "variant=" + ln.label);
            flight_->event(a.id, "admission", hostFree_, ln.device,
                           "transfer_ms=" +
                               obs::jsonNum(a.transferSec * 1e3));
        }
        ln.queued.push_back(QueuedArrival{arr, a.id});
        rep_.peakLaneQueueDepth =
            std::max(rep_.peakLaneQueueDepth, ln.queued.size());
    }
}

// Timeout cancellation: fail a lane's head fast while its remaining
// deadline budget cannot cover the policy's calibrated service
// estimate. Read-only unless it fires, so a run where no deadline ever
// expires keeps the pre-resilience timeline.
void
TickLoop::failfast()
{
    if (!resil_)
        return;
    const double t = now();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &ln = lanes_[i];
        while (ln.deadlineMs > 0.0 && !ln.queued.empty()) {
            const QueuedArrival head = ln.queued.front();
            const double est = policy_->estimateServiceSec(i, 1);
            if (!resil_->deadlineExpired(head.arrivalSec,
                                         ln.deadlineMs * 1e-3, t, est))
                break;
            dropOldest(i);
            ln.queued.pop_front();
            resil_->recordTimeout(head.id, i, ln.device, head.arrivalSec,
                                  t);
            noteFailed(i);
        }
    }
}

std::vector<LaneView>
TickLoop::laneViews() const
{
    const double t = now();
    std::vector<LaneView> views(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        const std::deque<QueuedArrival> &q = lanes_[i].queued;
        views[i].queueDepth = q.size();
        views[i].headArrivalSec = q.empty() ? 0.0 : q.front().arrivalSec;
        views[i].moreArrivals = !arrivals_[routed_ ? 0 : i].done();
        // An open breaker blocks the lane, and so does a head still
        // inside its retry-backoff hold.
        views[i].blocked =
            resil_ && (resil_->blocked(i, t) ||
                       (!q.empty() && q.front().notBeforeSec > t));
    }
    return views;
}

double
TickLoop::nextWake() const
{
    double wake = std::numeric_limits<double>::infinity();
    for (const LoadGenerator &gen : arrivals_)
        if (!gen.done())
            wake = std::min(wake, gen.peekSec());
    if (std::isfinite(wake) || !resil_)
        return wake;
    const double t = now();
    for (const Lane &ln : lanes_)
        if (!ln.queued.empty() && ln.queued.front().notBeforeSec > t)
            wake = std::min(wake, ln.queued.front().notBeforeSec);
    return wake;
}

OnlineReport
TickLoop::run(std::unique_ptr<SchedulerPolicy> policy)
{
    policy_ = std::move(policy);
    rep_.policy = policy_->name();
    std::size_t total = 0;
    for (const LoadGenerator &gen : arrivals_)
        total += gen.remaining();
    if (total == 0)
        return rep_;

    if (cfg_.serving.resilience.enabled) {
        resil_ = std::make_unique<ResilienceManager>(
            cfg_.serving.resilience, lanes_.size());
        resil_->setFlightRecorder(flight_);
    }
    latenciesSec_.reserve(total);
    queueDelaysSec_.reserve(total);

    while (served_ + shed_ + failed_ < total) {
        admit();
        pollFailures();
        failfast();
        // Backlog at every scheduling point, including the ones where
        // every lane is blocked or still filling.
        rep_.peakQueueDepth = std::max(rep_.peakQueueDepth, queued());
        const std::vector<LaneView> views = laneViews();
        int li = policy_->pickLane(views);
        if (li < 0) {
            const double wake = nextWake();
            if (std::isfinite(wake)) {
                // Idle, wait-to-fill still filling, an open breaker or
                // a backoff hold: jump the clock.
                hostFree_ = std::max(hostFree_, wake);
                advanceTo(hostFree_);
                continue;
            }
            li = oldestLane(views); // forced progress (breaker probe)
            if (li < 0)
                break; // nothing queued, nothing arriving
        }
        tick(static_cast<std::size_t>(li),
             views[static_cast<std::size_t>(li)]);
    }

    rep_.requests = served_;
    rep_.batches = rep_.ticks;
    rep_.makespanMs = lastCompletion_ * 1e3;
    rep_.throughputReqPerSec =
        lastCompletion_ > 0.0
            ? static_cast<double>(served_) / lastCompletion_
            : 0.0;
    rep_.msPerRequest =
        served_ ? rep_.makespanMs / static_cast<double>(served_) : 0.0;
    rep_.meanBatchSize =
        rep_.ticks ? static_cast<double>(served_) /
                         static_cast<double>(rep_.ticks)
                   : 0.0;
    // Attainment judges each request against its own lane's deadline,
    // so it comes from the per-lane tallies, not fillLatencyStats.
    fillLatencyStats(rep_, latenciesSec_, queueDelaysSec_, 0.0);
    applyResilienceStats(rep_, resil_.get());

    // Resilience-failed requests (timeouts, exhausted retries) were
    // admitted, so they stay out of shedFraction but count as misses in
    // the offered-denominator sloAttainment, exactly like sheds.
    const std::size_t offered = served_ + shed_ + failed_;
    rep_.requestsShed = shed_;
    rep_.shedFraction =
        offered > 0
            ? static_cast<double>(shed_) / static_cast<double>(offered)
            : 0.0;
    if (anyDeadline_ && !latenciesSec_.empty())
        rep_.sloAttainment = static_cast<double>(met_) /
                             static_cast<double>(latenciesSec_.size());
    rep_.admittedSloAttainment = rep_.sloAttainment;
    if ((shed_ > 0 || failed_ > 0) && anyDeadline_)
        rep_.sloAttainment =
            static_cast<double>(met_) / static_cast<double>(offered);

    for (Lane &ln : lanes_) {
        if (ln.label.empty() || (ln.latencies.empty() && ln.shed == 0))
            continue;
        VariantReport vr =
            makeVariantReport(ln.label, ln.latencies, ln.deadlineMs);
        vr.requestsShed = ln.shed;
        rep_.perVariant.push_back(std::move(vr));
    }
    finish(rep_);
    return rep_;
}

void
TickLoop::tick(std::size_t l, const LaneView &view)
{
    Lane &lane = lanes_[l];
    const std::size_t depth = lane.queued.size();
    rep_.peakLaneQueueDepth = std::max(rep_.peakLaneQueueDepth, depth);

    if (resil_) {
        // Brownout pressure is what admission bounds: the whole routed
        // backlog, else the deepest lane.
        std::size_t pressure = 0;
        for (const Lane &ln : lanes_)
            pressure = routed_ ? pressure + ln.queued.size()
                               : std::max(pressure, ln.queued.size());
        resil_->tickBrownout(pressure, brownoutBound_, now());
        setDuplicationScale(resil_->duplicationScale());
    }

    std::size_t batch = policy_->pickBatch(l, view);
    batch = std::max<std::size_t>(1, std::min(batch, depth));
    if (!cfg_.retainResults)
        clearResults();

    // Hedge: the head request has waited past the EWMA-derived delay,
    // so a backup copy runs on a second stream or device; the first
    // completion wins. The primary result stays authoritative (a hedge
    // stores nothing), so outputs are bit-identical to the unhedged
    // run by construction.
    const int s = pickStream(l);
    const QueuedArrival head = lane.queued.front();
    HedgeTarget ht;
    ShardBatch hb;
    if (resil_ && resil_->hedgeReady()) {
        const double t = now();
        const double waited = t - head.arrivalSec;
        if (waited > resil_->hedgeDelaySec() && hedgeTarget(l, s, ht)) {
            hb = hedgeOldest(l, ht);
            if (hb.cost.requests > 0)
                resil_->recordHedge(head.id, l, ht.device, t, waited);
        }
    }

    const ShardBatch b = serveOldest(l, batch, s);
    const Placed p = place(b, lane.device, s);
    double head_done = p.done;
    if (hb.cost.requests > 0) {
        const Placed ph = place(hb, ht.device, ht.stream);
        head_done = std::min(p.done, ph.done);
        resil_->recordHedgeOutcome(head.id, ht.device, head_done,
                                   ph.done < p.done);
        if (obs::enabled())
            obs::tracer().complete("tick/hedge", "online", ph.execStart,
                                   hb.cost.execSec, ht.device, ht.stream,
                                   "\"batch\":1");
        lastCompletion_ = std::max(lastCompletion_, ph.done);
    }
    advanceTo(std::max(p.done, lastCompletion_));

    double halo_bytes = 0.0;
    for (const auto &[owner, bytes] : b.haloBytesByOwner)
        halo_bytes += bytes;
    const bool halo = p.commDone > p.issueDone;
    if (obs::enabled()) {
        if (halo)
            obs::tracer().complete(
                "halo", "comm", p.issueDone, p.commDone - p.issueDone,
                lane.device, s, "\"bytes\":" + obs::jsonNum(halo_bytes));
        obs::tracer().complete(
            lane.label.empty() ? std::string("tick")
                               : "tick/" + lane.label,
            "online", p.execStart, b.cost.execSec, lane.device, s,
            "\"batch\":" + std::to_string(batch));
        if (p.gathered)
            obs::tracer().complete(
                "gather", "comm", p.execDone, p.done - p.execDone,
                lane.device, s, "\"bytes\":" + obs::jsonNum(b.gatherBytes));
    }

    policy_->observe(l, b.cost);
    batchSizes.push_back(batch);
    ++rep_.ticks;
    if (lane.deadlineMs > 0.0)
        anyDeadline_ = true;

    for (std::size_t i = 0; i < batch; ++i) {
        const QueuedArrival req = lane.queued.front();
        lane.queued.pop_front();
        const double done_at = i == 0 ? head_done : p.done;
        const double lat = done_at - req.arrivalSec;
        const double delay = std::max(0.0, p.execStart - req.arrivalSec);
        latenciesSec_.push_back(lat);
        queueDelaysSec_.push_back(delay);
        latenciesMs.push_back(lat * 1e3);
        queueDelaysMs.push_back(delay * 1e3);
        lane.latencies.push_back(lat);
        if (meetsDeadline(lat, lane.deadlineMs))
            ++met_;
        if (resil_)
            resil_->observeLatency(lat);
        if (flight_) {
            if (halo)
                flight_->event(req.id, "halo", p.commDone, lane.device,
                               "bytes=" + obs::jsonNum(halo_bytes));
            flight_->event(req.id, "exec-start", p.execStart, lane.device,
                           "stream=" + std::to_string(s));
            if (p.gathered)
                flight_->event(req.id, "all-gather", p.done, lane.device,
                               "bytes=" + obs::jsonNum(b.gatherBytes));
            flight_->event(req.id, "completion", done_at, lane.device,
                           "latency_ms=" + obs::jsonNum(lat * 1e3));
        }
        if (obs::enabled())
            obs::metrics().histogram("online.latency_ms").observe(lat * 1e3);
    }
    served_ += batch;
    if (resil_)
        resil_->noteSuccess(l, p.done);
    lastCompletion_ = std::max(lastCompletion_, p.done);
}

/**
 * Engine backend: one lane per VariantLoad (multi-tenant), or the one
 * unlabelled lane of the single-device server, fed by the run's own
 * arrival knobs. One device, whose one host thread both admits and
 * issues, so admission stalls behind issue overheads.
 */
class EngineLoop final : public TickLoop
{
  public:
    EngineLoop(const OnlineConfig &cfg, obs::FlightRecorder *flight,
               Engine &eng, bool multi_tenant)
        : TickLoop(cfg, flight), eng_(eng), rt_(eng.runtime()),
          clock_(std::max(1, eng.config().numStreams),
                 rt_.spec().streamSerialFraction),
          launchesBefore_(rt_.counters().total().launches)
    {
        if (!multi_tenant) {
            arrivals_.push_back(sessionArrivals(cfg));
            addLane("", eng.variantName(0), eng.variantConfig(0),
                    rt_.deviceId());
            variants_.push_back(0);
            rep_.offeredRatePerSec = cfg.arrivalRatePerSec;
            return;
        }
        for (const VariantLoad &load : cfg.variants) {
            const int v = eng.variantIndex(load.variant);
            const ServingConfig &vcfg = eng.variantConfig(v);
            arrivals_.emplace_back(load.ratePerSec, load.numRequests,
                                   load.arrivalSeed, vcfg.mmpp,
                                   vcfg.diurnal);
            addLane(load.variant, eng.variantName(v), vcfg, rt_.deviceId());
            variants_.push_back(v);
            rep_.offeredRatePerSec += load.ratePerSec;
        }
    }

  private:
    double now() const override { return hostFree_; }
    void advanceTo(double t) override { rt_.advanceTo(t); }
    std::size_t queued() const override { return eng_.queued(); }
    std::uint64_t reserveId() override { return eng_.reserveId(); }
    void clearResults() override { eng_.clearResults(); }
    void setDuplicationScale(double x) override { eng_.setDuplicationScale(x); }
    void dropOldest(std::size_t l) override
    {
        eng_.dropOldest(variants_[l], 1);
    }
    int pickStream(std::size_t) const override { return clock_.pickStream(); }

    SubmitInfo
    submit(std::size_t src) override
    {
        SubmitInfo a;
        const double before = rt_.hostTimeMs() * 1e-3;
        a.id = eng_.submit(variants_[src]);
        a.transferSec = rt_.hostTimeMs() * 1e-3 - before;
        return a;
    }

    /** The least-busy other stream of the one device. */
    bool
    hedgeTarget(std::size_t, int stream, HedgeTarget &out) const override
    {
        out.device = rt_.deviceId();
        out.stream = leastLoaded(clock_.streamFree, stream);
        return out.stream >= 0;
    }

    ShardBatch
    serveOldest(std::size_t l, std::size_t n, int stream) override
    {
        ShardBatch b;
        b.cost = eng_.serveOldest(variants_[l], n, stream);
        return b;
    }

    ShardBatch
    hedgeOldest(std::size_t l, HedgeTarget t) override
    {
        ShardBatch b;
        b.cost = eng_.hedgeOldest(variants_[l], t.stream);
        return b;
    }

    Placed
    place(const ShardBatch &b, int, int stream) override
    {
        Placed p;
        p.issueDone = p.commDone = hostFree_ =
            clock_.launch(b.cost.overheadSec, hostFree_);
        clock_.run(b.cost.execSec, stream, p);
        p.done = p.execDone;
        return p;
    }

    void
    finish(OnlineReport &rep) override
    {
        fillCacheStats(rep, eng_.planCache().stats());
        rep.launches = rt_.counters().total().launches - launchesBefore_;
    }

    Engine &eng_;
    sim::Runtime &rt_;
    OpenLoopClock clock_;
    std::uint64_t launchesBefore_;
    /** Engine variant id of each lane. */
    std::vector<int> variants_;
};

/**
 * Sharded backend: one lane per device of a ShardedSession, fed by one
 * arrival process whose admitted requests route to their home shard.
 * One PCIe admission thread (hostFree_) is shared, and so is the
 * interconnect, serialized per directed link. Unlike the engine
 * backend's, the admission thread is free while devices execute:
 * anything that arrived by the group clock (advanced to each batch
 * completion) is admitted, which is what lets queue depth build under
 * load and the adaptive batcher actually batch. Each device has its
 * own OpenLoopClock: a driver thread, its streams, its contention
 * floor.
 */
class ShardedLoop final : public TickLoop
{
  public:
    ShardedLoop(const OnlineConfig &cfg, obs::FlightRecorder *flight,
                ShardedSession &sharded, sim::DeviceGroup &group)
        : TickLoop(cfg, flight), s_(sharded), group_(group),
          clocks_(static_cast<std::size_t>(group.size()),
                  OpenLoopClock(std::max(1, cfg.serving.numStreams),
                                group.device(0).spec().streamSerialFraction)),
          launchesBefore_(group.totalLaunches()),
          icBusyBefore_(group.interconnect().totalBusySec())
    {
        rep_.offeredRatePerSec = cfg.arrivalRatePerSec;
        rep_.devices = group.size();
        arrivals_.push_back(sessionArrivals(cfg));
        routed_ = true;
        for (int d = 0; d < group.size(); ++d)
            addLane("", "dev" + std::to_string(d), cfg.serving, d);
    }

  private:
    double now() const override { return std::max(hostFree_, group_.nowSec()); }
    void advanceTo(double t) override { group_.advanceTo(t); }
    std::size_t queued() const override { return s_.queued(); }
    std::uint64_t reserveId() override { return s_.reserveId(); }
    void clearResults() override { s_.clearResults(); }
    void setDuplicationScale(double x) override { s_.setDuplicationScale(x); }
    void dropOldest(std::size_t l) override
    {
        s_.dropOldestOn(static_cast<int>(l), 1);
    }
    int pickStream(std::size_t l) const override
    {
        return clocks_[l].pickStream();
    }
    ShardBatch serveOldest(std::size_t l, std::size_t n, int stream) override
    {
        return s_.serveOldestOn(static_cast<int>(l), n, stream);
    }
    ShardBatch hedgeOldest(std::size_t l, HedgeTarget t) override
    {
        return s_.hedgeOldestOn(static_cast<int>(l), t.device, t.stream);
    }

    SubmitInfo submit(std::size_t) override { return s_.submitRouted(); }

    // Scheduled device failures fire against the open-loop clock: the
    // session quarantines the device and re-routes its queue (charging
    // the structure re-sends on the admission thread), and the lanes
    // mirror the move — the session's re-route order IS the lane
    // order, both FIFO by admission. Then circuit breakers steer the
    // router: open-breaker devices are avoided by homeShard while any
    // unmasked alive device remains.
    void
    pollFailures() override
    {
        for (int d = 0; fi() && d < group_.size(); ++d) {
            if (s_.isDead(d) || !fi()->failureDue(d, now()))
                continue;
            const double t_fail = fi()->failureTimeSec(d);
            const std::vector<ShardedSession::Rerouted> moved =
                s_.quarantine(d, t_fail);
            std::deque<QueuedArrival> &dq =
                lanes_[static_cast<std::size_t>(d)].queued;
            for (const ShardedSession::Rerouted &rr : moved) {
                QueuedArrival qa{};
                qa.id = rr.id;
                if (!dq.empty()) {
                    qa = dq.front();
                    dq.pop_front();
                }
                hostFree_ += rr.transferSec;
                if (resil_) {
                    // Retry with seeded capped backoff: a quarantine is
                    // a transient per-request failure. Exhausted
                    // budgets fail the request outright — its
                    // re-routed copy leaves the destination queue.
                    const ResilienceManager::RetryDecision rd =
                        resil_->onFailure(
                            rr.id, static_cast<std::size_t>(rr.from),
                            rr.from, t_fail, "quarantine", qa.attempts);
                    if (!rd.retry) {
                        s_.dropQueued(rr.id);
                        noteFailed(static_cast<std::size_t>(rr.from));
                        continue;
                    }
                    qa.attempts = rd.attempt;
                    qa.notBeforeSec = rd.notBeforeSec;
                }
                lanes_[static_cast<std::size_t>(rr.to)].queued.push_back(
                    qa);
            }
            dq.clear();
            rep_.requestsRerouted += moved.size();
            if (obs::enabled())
                obs::tracer().instant(
                    "device.failure", "online", t_fail, d, 0,
                    "\"rerouted\":" + std::to_string(moved.size()));
        }
        if (fi())
            rep_.devicesFailed = group_.size() - s_.aliveCount();
        if (!resil_)
            return;
        const double t = now();
        // An all-clear mask routes exactly like no mask.
        std::vector<char> avoid(lanes_.size(), 0);
        for (std::size_t d = 0; d < lanes_.size(); ++d)
            avoid[d] = resil_->blocked(d, t);
        s_.setRouteAvoid(std::move(avoid));
    }

    /** Deterministic backup pick: alive, not the primary, shallowest
     *  queue, ties to the lowest device id. */
    bool
    hedgeTarget(std::size_t l, int, HedgeTarget &out) const override
    {
        int best = -1;
        for (std::size_t d = 0; d < lanes_.size(); ++d)
            if (d != l && !s_.isDead(static_cast<int>(d)) &&
                (best < 0 ||
                 lanes_[d].queued.size() <
                     lanes_[static_cast<std::size_t>(best)].queued.size()))
                best = static_cast<int>(d);
        if (best < 0)
            return false;
        out.device = best;
        out.stream = clocks_[static_cast<std::size_t>(best)].pickStream();
        return true;
    }

    // One batch through device @p dev's clocks: issue on its driver
    // thread, halo rows resident before the kernels start (rows owned
    // by failed shards re-gather from the host store over this device's
    // PCIe lanes instead of the interconnect), contended execution on
    // @p stream, then all-gather onto the root — device 0 unless it has
    // been quarantined, then the lowest survivor.
    Placed
    place(const ShardBatch &b, int dev, int stream) override
    {
        int root = 0;
        while (root < group_.size() && s_.isDead(root))
            ++root;
        OpenLoopClock &c = clocks_[static_cast<std::size_t>(dev)];
        Placed p;
        p.issueDone = c.launch(b.cost.overheadSec, hostFree_);
        p.commDone = p.issueDone;
        for (const auto &[owner, bytes] : b.haloBytesByOwner) {
            p.commDone = std::max(p.commDone,
                                  group_.interconnect().transfer(
                                      owner, dev, bytes, p.issueDone));
            rep_.haloBytes += bytes;
        }
        if (b.hostFallbackBytes > 0.0) {
            sim::Runtime &drt = group_.device(dev);
            const double t =
                graph::hostTransferSec(b.hostFallbackBytes, drt.spec());
            drt.hostOverhead(t);
            p.commDone = std::max(p.commDone, p.issueDone + t);
        }
        c.run(b.cost.execSec, stream, p);
        p.gathered = root < group_.size() && dev != root;
        p.done = p.gathered ? group_.interconnect().transfer(
                                  dev, root, b.gatherBytes, p.execDone)
                            : p.execDone;
        return p;
    }

    void
    finish(OnlineReport &rep) override
    {
        rep.interconnectMs =
            (group_.interconnect().totalBusySec() - icBusyBefore_) * 1e3;
        fillCacheStats(rep, s_.planCache().stats());
        rep.launches = group_.totalLaunches() - launchesBefore_;
    }

    sim::FaultInjector *fi() const { return group_.faultInjector(); }

    ShardedSession &s_;
    sim::DeviceGroup &group_;
    std::vector<OpenLoopClock> clocks_;
    std::uint64_t launchesBefore_;
    double icBusyBefore_;
};

} // namespace

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::Runtime &rt)
    : cfg_(cfg),
      ownedEngine_(defaultEngine(g, std::move(host_features),
                                 std::move(model_source), cfg.serving, rt)),
      engine_(ownedEngine_.get()),
      batcher_(sharedBatcher(cfg))
{
    validatePolicyName(cfg_);
}

OnlineServer::OnlineServer(const graph::HeteroGraph &g,
                           tensor::Tensor host_features,
                           std::string model_source, OnlineConfig cfg,
                           sim::DeviceGroup &group)
    : cfg_(cfg), group_(&group),
      batcher_(sharedBatcher(cfg))
{
    validatePolicyName(cfg_);
    ShardedConfig scfg;
    scfg.serving = cfg.serving;
    scfg.partition = cfg.partition;
    sharded_ = std::make_unique<ShardedSession>(
        g, std::move(host_features), std::move(model_source), scfg,
        group);
}

OnlineServer::OnlineServer(Engine &engine, OnlineConfig cfg)
    : cfg_(cfg), engine_(&engine),
      batcher_(sharedBatcher(cfg))
{
    validatePolicyName(cfg_);
    if (cfg_.variants.empty())
        throw std::invalid_argument(
            "OnlineServer: multi-tenant mode needs at least one "
            "VariantLoad");
    std::set<std::string> seen;
    for (const VariantLoad &load : cfg_.variants) {
        if (engine.variantIndex(load.variant) < 0)
            throw std::invalid_argument(
                "OnlineServer: unregistered variant '" + load.variant +
                "'");
        if (!seen.insert(load.variant).second)
            throw std::invalid_argument(
                "OnlineServer: duplicate VariantLoad for variant '" +
                load.variant +
                "' (two lanes feeding one FIFO would scramble "
                "per-request latency attribution)");
        if (load.ratePerSec <= 0.0)
            throw std::invalid_argument(
                "OnlineServer: ratePerSec must be > 0 for variant '" +
                load.variant + "'");
    }
}

ShardedSession &
OnlineServer::sharded()
{
    if (!sharded_)
        throw std::runtime_error(
            "OnlineServer::sharded: server does not run in sharded mode");
    return *sharded_;
}

Engine &
OnlineServer::engine()
{
    if (!engine_)
        throw std::runtime_error(
            "OnlineServer::engine: sharded mode serves through sharded()");
    return *engine_;
}

void
OnlineServer::setFlightRecorder(obs::FlightRecorder *fr)
{
    flight_ = fr;
    if (engine_)
        engine_->setFlightRecorder(fr);
    if (sharded_)
        sharded_->setFlightRecorder(fr);
}

std::unique_ptr<SchedulerPolicy>
OnlineServer::buildPolicy(PolicySetup setup) const
{
    std::unique_ptr<SchedulerPolicy> policy;
    if (cfg_.makePolicy)
        policy = cfg_.makePolicy(setup);
    else
        policy = makeSchedulerPolicy(
            !cfg_.policy.empty()
                ? cfg_.policy
                : (cfg_.adaptive ? std::string("adaptive")
                                 : std::string("fixed")),
            std::move(setup));
    if (!policy)
        throw std::runtime_error(
            "OnlineServer: policy factory returned null");
    return policy;
}

OnlineReport
OnlineServer::run()
{
    latenciesMs_.clear();
    queueDelaysMs_.clear();
    batchSizes_.clear();
    std::unique_ptr<TickLoop> loop;
    if (sharded_)
        loop = std::make_unique<ShardedLoop>(cfg_, flight_, *sharded_,
                                             *group_);
    else
        loop = std::make_unique<EngineLoop>(cfg_, flight_, *engine_,
                                            multiTenant());
    // The single-device and sharded lanes share the server's batcher
    // (exposed via batcher()); variant lanes each own one.
    if (!multiTenant())
        loop->setup.sharedBatcher = &batcher_;
    const OnlineReport rep = loop->run(buildPolicy(loop->setup));
    latenciesMs_ = std::move(loop->latenciesMs);
    queueDelaysMs_ = std::move(loop->queueDelaysMs);
    batchSizes_ = std::move(loop->batchSizes);
    return rep;
}

// ------------------------------------------------------------ absorb helper

void
absorbOnlineReport(obs::Registry &reg, const OnlineReport &report,
                   const std::string &prefix)
{
    absorbReport(reg, report, prefix);
    reg.gauge(prefix + ".requests_shed")
        .set(static_cast<double>(report.requestsShed));
    reg.gauge(prefix + ".shed_fraction").set(report.shedFraction);
    reg.gauge(prefix + ".admitted_slo_attainment")
        .set(report.admittedSloAttainment);
    reg.gauge(prefix + ".peak_queue_depth")
        .set(static_cast<double>(report.peakQueueDepth));
    reg.gauge(prefix + ".peak_lane_queue_depth")
        .set(static_cast<double>(report.peakLaneQueueDepth));
    reg.gauge(prefix + ".requests_retried")
        .set(static_cast<double>(report.requestsRetried));
    reg.gauge(prefix + ".requests_hedged")
        .set(static_cast<double>(report.requestsHedged));
    reg.gauge(prefix + ".hedge_wins")
        .set(static_cast<double>(report.hedgeWins));
    reg.gauge(prefix + ".requests_timed_out")
        .set(static_cast<double>(report.requestsTimedOut));
    reg.gauge(prefix + ".requests_failed")
        .set(static_cast<double>(report.requestsFailed));
    reg.gauge(prefix + ".breaker_opens")
        .set(static_cast<double>(report.breakerOpens));
    reg.gauge(prefix + ".brownout_ticks")
        .set(static_cast<double>(report.brownoutTicks));
}

} // namespace hector::serve
