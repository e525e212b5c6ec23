/**
 * @file
 * Shared pieces of the repository benchmark: the wall clock, sample
 * statistics, the in-memory span recorder of traced runs, the result
 * record and the host fingerprint.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace perfbench
{

/** Seconds since the benchmark process started (steady clock). */
double nowSec();

/** Wall seconds of one call to @p fn. */
template <typename Fn>
double
timeSec(Fn &&fn)
{
    const double t0 = nowSec();
    fn();
    return nowSec() - t0;
}

/** Nearest-rank percentile of @p v (copied and sorted); q in [0, 1]. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/**
 * The highest percentile of @p v with at least ten samples beyond it:
 * the 11th-largest sample, at percentile 100 * (n - 10) / n. With ten
 * or fewer samples there is no such percentile and the maximum is
 * returned at percentile 100.
 */
struct Tail
{
    double value = 0.0;
    double pct = 100.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/** SplitMix64: derives independent, reproducible streams from a seed. */
std::uint64_t mix64(std::uint64_t x);

/**
 * Span recorder of the traced run. Spans are kept in memory and
 * written out once, at the end. A span opened while another is open
 * becomes its child; async spans (a request's queue wait, its whole
 * latency) name their parent explicitly and take no part in the
 * self-time accounting, because they overlap the work spans.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t id; ///< request or batch id; 0 for phase spans
        int parent;       ///< index of the parent span, -1 for a root
        double t0;
        double t1;
        bool async;
    };

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    /** Open a nested span; returns its index (-1 while off). */
    int begin(const char *name, std::uint64_t id);
    void end(int idx);
    /** Record a finished async span under @p parent. */
    void async(const char *name, std::uint64_t id, int parent, double t0,
               double t1);
    /** Index of the innermost open span, -1 if none. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Per span name: summed self time (duration minus the time its
     *  child spans cover), over non-async spans. */
    std::map<std::string, double> selfTimeByName() const;
    /** Summed self time of every non-async span. */
    double totalSelfTime() const;
    /** Durations of every span named @p name, seconds. */
    std::vector<double> durations(const char *name) const;

    /** Write the spans as a Chrome trace-event JSON file. */
    bool writeJson(const std::string &path) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII nested span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t id = 0)
        : t_(t), idx_(t.begin(name, id))
    {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int index() const { return idx_; }

  private:
    Tracer &t_;
    int idx_;
};

/** Options every workload receives. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes and short phases, for the benchmark's self-test. */
    bool toy = false;
    /** Where traces are written; "" disables the file. */
    std::string outDir;
};

/** Cold set-ups behind setup_s; the last one is kept for the run. */
constexpr int kSetups = 3;

/** One printed metric. */
struct Metric
{
    double value;
    std::string unit;
};

/** What a workload run produces. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Oracle mismatches (also counted in failed). */
    std::uint64_t mismatches = 0;
    std::map<std::string, Metric> metrics;
    /** Configuration and diagnostic fields for the result record. */
    std::map<std::string, std::string> info;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void note(const std::string &key, const std::string &json_value)
    {
        info[key] = json_value;
    }
};

/** Quote @p s as a JSON string. */
std::string jstr(const std::string &s);
/** Format @p v as a JSON number with full precision (finite only). */
std::string jnum(double v);

/** Format @p v as a JSON array of numbers. */
std::string jlist(const std::vector<double> &v);
/** Format @p m as a JSON object of numbers. */
std::string jobject(const std::map<std::string, double> &m);

/** Steal and total CPU time of the host so far (/proc/stat, jiffies). */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;
};
CpuTimes cpuTimes();

/** Absolute tolerance of every comparison with the reference oracle:
 *  about 70x the largest difference seen on these workloads (1.4e-6,
 *  HGT on serve-mix), and tight enough to catch a 1% error in one op. */
constexpr float kOracleTolerance = 1e-4f;

/** True when @p out matches @p ref within kOracleTolerance; raises
 *  @p max_diff to the largest absolute difference seen. */
bool matchesOracle(const hector::tensor::Tensor &out,
                   const hector::tensor::Tensor &ref, double &max_diff);

/** Peak resident set of this process, MB (VmHWM). */
double maxRssMb();

/**
 * Remove every entry of the JIT artifact directory, so the next
 * compile of each kernel module is cold. Only call while no module
 * is loaded.
 */
void emptyJitDir();
/** True when the JIT artifact directory is missing or empty. */
bool jitDirEmpty();

/** Host and configuration fingerprint fields for the record. */
void addFingerprint(Result &r);

/** Median of @p setups set-up durations, as setup_s. */
void reportSetup(Result &r, const std::vector<double> &setups);

Result runFullgraph(const Options &opt);
Result runServe(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
