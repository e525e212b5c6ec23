#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "core/jit.hh"
#include "tensor/simd.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{
const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();
} // namespace

double
nowSec()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         g_start)
        .count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10) {
        t.value = v.back();
        return t;
    }
    t.value = v[n - 11];
    t.pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return t;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int
Tracer::begin(const char *name, std::uint64_t id)
{
    if (!on_)
        return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, id, current(), nowSec(), 0.0, false});
    stack_.push_back(idx);
    return idx;
}

void
Tracer::end(int idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].t1 = nowSec();
    // Spans close in LIFO order; tolerate a tracer switched on or off
    // while a scope was open.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == idx)
            break;
    }
}

void
Tracer::async(const char *name, std::uint64_t id, int parent, double t0,
              double t1)
{
    if (on_)
        spans_.push_back({name, id, parent, t0, t1, true});
}

std::map<std::string, double>
Tracer::selfTimeByName() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (!s.async && s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (!spans_[i].async)
            out[spans_[i].name] += spans_[i].t1 - spans_[i].t0 - child[i];
    return out;
}

double
Tracer::totalSelfTime() const
{
    double sum = 0.0;
    for (const auto &[name, self] : selfTimeByName())
        sum += self;
    return sum;
}

std::vector<double>
Tracer::durations(const char *name) const
{
    std::vector<double> out;
    const std::string n(name);
    for (const Span &s : spans_)
        if (n == s.name)
            out.push_back(s.t1 - s.t0);
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "") << "{\"name\":" << jstr(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.async ? 2 : 1)
          << ",\"ts\":" << jnum(s.t0 * 1e6)
          << ",\"dur\":" << jnum((s.t1 - s.t0) * 1e6)
          << ",\"args\":{\"span\":" << i << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jlist(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += jnum(v[i]);
    }
    return out + "]";
}

bool
matchesOracle(const hector::tensor::Tensor &out,
               const hector::tensor::Tensor &ref, double &max_diff)
{
    if (out.shape() != ref.shape())
        return false;
    const double d = hector::tensor::maxAbsDiff(out, ref);
    max_diff = std::max(max_diff, d);
    return d <= kOracleTolerance;
}

CpuTimes
cpuTimes()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    CpuTimes t;
    double v = 0.0;
    for (int i = 0; i < 8 && (f >> v); ++i) {
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

std::string
jobject(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        if (out.size() > 1)
            out += ',';
        out += jstr(k);
        out += ':';
        out += jnum(v);
    }
    return out + "}";
}

double
maxRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

void
emptyJitDir()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir(hector::core::jit::artifactDir());
    for (const auto &e : fs::directory_iterator(dir, ec))
        fs::remove_all(e.path(), ec);
}

bool
jitDirEmpty()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    return fs::is_empty(hector::core::jit::artifactDir(), ec) || ec;
}

namespace
{

std::string
jitModeName()
{
    switch (hector::core::jit::jitMode()) {
      case hector::core::jit::JitMode::Off:
        return "off";
      case hector::core::jit::JitMode::On:
        return "on";
      case hector::core::jit::JitMode::Auto:
        return "auto";
    }
    return "?";
}

/** First line of `<cxx> --version`, "" when it does not run. */
std::string
compilerVersion(const std::string &cxx)
{
    std::string cmd = cxx + " --version 2>/dev/null";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return "";
    char buf[256] = {0};
    std::string line;
    if (std::fgets(buf, sizeof(buf), p))
        line = buf;
    ::pclose(p);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

} // namespace

void
addFingerprint(Result &r)
{
    namespace fs = std::filesystem;
    r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    r.note("isa", jstr(hector::tensor::simd::isaName()));
    r.note("lanes", std::to_string(hector::tensor::simd::vectorWidth()));
    r.note("threads", std::to_string(hector::util::resolveThreads()));
    const char *cxx_env = std::getenv("HECTOR_JIT_CXX");
    const std::string cxx = cxx_env && *cxx_env ? cxx_env : "c++";
    r.note("jit_mode", jstr(jitModeName()));
    r.note("jit_toolchain",
           hector::core::jit::toolchainAvailable() ? "true" : "false");
    r.note("jit_cxx", jstr(cxx));
    r.note("jit_cxx_version", jstr(compilerVersion(cxx)));
    r.note("jit_dir", jstr(fs::path(hector::core::jit::artifactDir())
                               .filename()
                               .string()));
}

void
reportSetup(Result &r, const std::vector<double> &setups)
{
    r.set("setup_s", median(setups), "s");
    r.note("setup_s_samples", jlist(setups));
}

} // namespace perfbench
