#include "core/jit.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/compiler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tensor/simd.hh"
#include "util/json_log.hh"

#if defined(_WIN32)
// No dlopen on Windows; the JIT backend degrades to a counted
// fallback (toolchainAvailable() stays false).
#else
#include <dlfcn.h>
#include <unistd.h>
#define HECTOR_JIT_HAVE_DLOPEN 1
#endif

namespace hector::core::jit
{

namespace
{

std::atomic<std::uint64_t> stat_compiles{0};
std::atomic<std::uint64_t> stat_cache_hits{0};
std::atomic<std::uint64_t> stat_fallbacks{0};
std::atomic<std::size_t> stat_loaded_bytes{0};

std::atomic<int> mode_override{-1};

JitMode
envMode()
{
    static const JitMode cached = parseJitEnv(std::getenv("HECTOR_JIT"));
    return cached;
}

/** Host C++ compiler command (HECTOR_JIT_CXX override). */
std::string
compilerCommand()
{
    if (const char *env = std::getenv("HECTOR_JIT_CXX"))
        if (*env != '\0')
            return env;
    return "c++";
}

/** FNV-1a over a string, continuing hash @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Flags of the JIT compile line. -ffp-contract=off is load-bearing:
 * it forbids the mul+add -> fma contraction that would change the
 * bits vs the interpreter (whose build passes the same flag); the
 * specialization win comes from -O3 auto-vectorizing the baked
 * constant-bound column loop, not from relaxed arithmetic.
 */
const char *const kBaseFlags =
    "-std=c++17 -O3 -ffp-contract=off -shared -fPIC";

/** The --version probe of the host compiler, run once per process:
 *  whether it answered, and the first line of its answer. */
struct Toolchain
{
    bool available = false;
    std::string version;
};

const Toolchain &
toolchain()
{
    static const Toolchain cached = []() {
        Toolchain t;
#if defined(HECTOR_JIT_HAVE_DLOPEN)
        const std::string cmd = compilerCommand() + " --version 2>/dev/null";
        if (FILE *p = ::popen(cmd.c_str(), "r")) {
            bool first_line = true;
            for (int c; (c = std::fgetc(p)) != EOF;) {
                if (c == '\n')
                    first_line = false;
                else if (first_line)
                    t.version += static_cast<char>(c);
            }
            t.available = ::pclose(p) == 0;
        }
#endif
        return t;
    }();
    return cached;
}

/** The host CPU's feature list: the Linux /proc/cpuinfo flags (x86)
 *  or Features (Arm) line, else the SIMD dispatch ISA. */
std::string
cpuFeatures()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("flags", 0) == 0 || line.rfind("Features", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 1);
        }
    return tensor::simd::isaName();
}

/** Hash of everything an artifact's name covers except its source. */
std::uint64_t
identitySeed(const std::string &identity)
{
    return fnv1a(fnv1a(0xcbf29ce484222325ull, kBaseFlags), identity);
}

/** In-process memo: content hash -> live module. */
std::mutex memo_mu;
std::unordered_map<std::uint64_t, std::weak_ptr<const JitModule>> memo;

/** Layout mirror of the table the emitted source exports. */
struct TableEntry
{
    int backward;
    int kid;
    GemmRowFn fn;
};

} // namespace

std::shared_ptr<const JitModule>
detail::loadModule(const std::string &so_path)
{
#if defined(HECTOR_JIT_HAVE_DLOPEN)
    void *handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle)
        return nullptr;
    auto *count =
        static_cast<const int *>(dlsym(handle, "hector_jit_entry_count"));
    auto *entries = static_cast<const TableEntry *>(
        dlsym(handle, "hector_jit_entries"));
    if (!count || !entries || *count < 0) {
        dlclose(handle);
        return nullptr;
    }
    std::shared_ptr<JitModule> m(new JitModule());
    m->handle_ = handle;
    m->path_ = so_path;
    std::error_code ec;
    const auto sz = std::filesystem::file_size(so_path, ec);
    m->artifactBytes_ = ec ? 0 : static_cast<std::size_t>(sz);
    for (int i = 0; i < *count; ++i) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(entries[i].kid))
             << 1) |
            (entries[i].backward ? 1u : 0u);
        m->kernels_[key] = entries[i].fn;
    }
    stat_loaded_bytes.fetch_add(m->artifactBytes_,
                                std::memory_order_relaxed);
    return m;
#else
    (void)so_path;
    return nullptr;
#endif
}

JitMode
parseJitEnv(const char *value)
{
    if (!value || *value == '\0')
        return JitMode::Auto;
    const std::string v(value);
    if (v == "off")
        return JitMode::Off;
    if (v == "on")
        return JitMode::On;
    if (v == "auto")
        return JitMode::Auto;
    throw std::invalid_argument(
        std::string("HECTOR_JIT: invalid mode '") + value +
        "' (expected one of 'off', 'on', 'auto')");
}

JitMode
jitMode()
{
    const int o = mode_override.load(std::memory_order_relaxed);
    if (o >= 0)
        return static_cast<JitMode>(o);
    return envMode();
}

void
setJitMode(JitMode mode)
{
    mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

bool
toolchainAvailable()
{
    return toolchain().available;
}

const std::string &
hostIdentity()
{
    static const std::string cached = compilerCommand() + "\n" +
                                      toolchain().version + "\n" +
                                      cpuFeatures();
    return cached;
}

std::string
artifactStem(const std::string &source, const std::string &identity)
{
    return "hector_jit_" + hex64(fnv1a(identitySeed(identity), source));
}

std::string
artifactDir()
{
    static const std::string cached = []() {
        if (const char *env = std::getenv("HECTOR_JIT_DIR"))
            if (*env != '\0')
                return std::string(env);
        std::error_code ec;
        std::filesystem::path tmp =
            std::filesystem::temp_directory_path(ec);
        if (ec)
            tmp = ".";
        return (tmp / "hector-jit").string();
    }();
    return cached;
}

JitModule::~JitModule()
{
#if defined(HECTOR_JIT_HAVE_DLOPEN)
    if (handle_) {
        stat_loaded_bytes.fetch_sub(artifactBytes_,
                                    std::memory_order_relaxed);
        dlclose(handle_);
    }
#endif
}

GemmRowFn
JitModule::kernel(bool backward, int kid) const
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(kid))
         << 1) |
        (backward ? 1u : 0u);
    auto it = kernels_.find(key);
    return it == kernels_.end() ? nullptr : it->second;
}

std::shared_ptr<const JitModule>
compileModule(const std::string &source)
{
    if (source.empty())
        return nullptr;

    // The identity part of the hash is computed once per process, so
    // a recompile on the request path hashes only its source.
    static const std::uint64_t seed = identitySeed(hostIdentity());
    const std::uint64_t h = fnv1a(seed, source);

    std::lock_guard<std::mutex> lock(memo_mu);
    auto mit = memo.find(h);
    if (mit != memo.end()) {
        if (auto live = mit->second.lock()) {
            stat_cache_hits.fetch_add(1, std::memory_order_relaxed);
            return live;
        }
        memo.erase(mit);
    }

    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir(artifactDir());
    fs::create_directories(dir, ec);
    if (ec)
        return nullptr;

    const std::string stem = "hector_jit_" + hex64(h);
    const fs::path so_path = dir / (stem + ".so");
    const fs::path cc_path = dir / (stem + ".cc");

    // Disk hit: a previous process (or CI step, via the cached
    // artifact directory) already built this exact specialization.
    if (fs::exists(so_path, ec)) {
        if (auto m = detail::loadModule(so_path.string())) {
            stat_cache_hits.fetch_add(1, std::memory_order_relaxed);
            memo[h] = m;
            return m;
        }
        fs::remove(so_path, ec); // stale/corrupt: rebuild below
    }

    if (!toolchainAvailable())
        return nullptr;

    if (!util::writeFileAtomic(cc_path.string(), source))
        return nullptr;

    // Build to a temp name and rename so a concurrent process never
    // dlopens a half-written artifact; -march=native first for the
    // widest vectorization, plain retry for toolchains without it.
    const fs::path tmp_so =
        dir / (stem + ".tmp" + std::to_string(::getpid()) + ".so");
    const std::string base = compilerCommand() + " " + kBaseFlags;
    const std::string tail = " -o '" + tmp_so.string() + "' '" +
                             cc_path.string() + "' >/dev/null 2>&1";
    bool built = false;
    {
        obs::Span span = obs::Span::wall("jit_compile", "jit", 0);
        built = std::system(
                    (base + " -march=native" + tail).c_str()) == 0;
        if (!built)
            built = std::system((base + tail).c_str()) == 0;
    }
    if (!built) {
        fs::remove(tmp_so, ec);
        return nullptr;
    }
    fs::rename(tmp_so, so_path, ec);
    if (ec) {
        fs::remove(tmp_so, ec);
        return nullptr;
    }

    auto m = detail::loadModule(so_path.string());
    if (!m)
        return nullptr;
    stat_compiles.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::metrics().counter("jit.compiles").inc();
    memo[h] = m;
    return m;
}

bool
attach(CompiledModel &m)
{
    const JitMode mode = jitMode();
    const bool attempt =
        mode == JitMode::On ||
        (mode == JitMode::Auto && toolchainAvailable());
    std::shared_ptr<const JitModule> mod;
    if (attempt)
        mod = compileModule(m.code.cpuSource);
    if (!mod) {
        stat_fallbacks.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled())
            obs::metrics().counter("jit.fallbacks").inc();
        return false;
    }
    m.jit = std::move(mod);
    return true;
}

JitStats
jitStats()
{
    JitStats s;
    s.compiles = stat_compiles.load(std::memory_order_relaxed);
    s.cacheHits = stat_cache_hits.load(std::memory_order_relaxed);
    s.fallbacks = stat_fallbacks.load(std::memory_order_relaxed);
    s.loadedBytes = stat_loaded_bytes.load(std::memory_order_relaxed);
    return s;
}

void
resetJitStatsForTest()
{
    stat_compiles.store(0, std::memory_order_relaxed);
    stat_cache_hits.store(0, std::memory_order_relaxed);
    stat_fallbacks.store(0, std::memory_order_relaxed);
    // loadedBytes tracks live modules, not history; leave it.
}

void
absorbJitStats(obs::Registry &reg, const std::string &prefix)
{
    const JitStats s = jitStats();
    reg.gauge(prefix + ".compiles").set(static_cast<double>(s.compiles));
    reg.gauge(prefix + ".cache_hits")
        .set(static_cast<double>(s.cacheHits));
    reg.gauge(prefix + ".fallbacks")
        .set(static_cast<double>(s.fallbacks));
    reg.gauge(prefix + ".loaded_bytes")
        .set(static_cast<double>(s.loadedBytes));
}

} // namespace hector::core::jit
