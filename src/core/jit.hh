/**
 * @file
 * Host JIT backend: compile the code generator's C++ kernel source
 * with the system toolchain, dlopen the result, and hand the executor
 * per-(instance, shape) specialized GEMM row kernels.
 *
 * core/codegen emits one `extern "C"` micro-kernel per GEMM-template
 * instance with the output dimension baked as a compile-time constant
 * (GeneratedCode::cpuSource); compiling that source at -O3
 * -march=native lets the host compiler fully unroll and vectorize the
 * constant-bound column loop for the exact shape being served —
 * while `-ffp-contract=off` on the JIT command line preserves the
 * seed's one-mul-one-add-per-element rounding, so a JIT kernel is
 * bit-identical to the interpreter's blocked path and the seed
 * oracle.
 *
 * Artifacts are content-addressed: the .so (and its .cc, kept for
 * debugging) land in HECTOR_JIT_DIR (default: a per-user directory
 * under the system temp dir) named by an FNV-1a hash of source,
 * flags and hostIdentity(), so repeated compiles of the same
 * specialization — across processes and CI steps — reload from disk
 * instead of re-invoking the compiler, while an artifact built by
 * another compiler or for another CPU never loads. In-process,
 * modules are additionally memoized under a weak_ptr table: a plan
 * evicted from the byte-budgeted PlanCache drops the last shared_ptr
 * and the module dlcloses; pinned in-flight plans keep it loaded by
 * construction.
 *
 * Every degraded path — HECTOR_JIT=off, no toolchain, a failed
 * compile or dlopen — falls back to the generic blocked kernels and
 * bumps the jitFallbacks counter, observable via jitStats() and
 * absorbJitStats().
 */

#ifndef HECTOR_CORE_JIT_HH
#define HECTOR_CORE_JIT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

namespace hector::obs
{
class Registry;
}

namespace hector::core
{
struct CompiledModel;
}

namespace hector::core::jit
{

/** HECTOR_JIT modes. */
enum class JitMode
{
    Off,  ///< never compile; every attach is a counted fallback
    On,   ///< always attempt the compile (failures still fall back)
    Auto, ///< compile when a toolchain is available (default)
};

/**
 * Parse a HECTOR_JIT value. nullptr/empty returns the default (Auto).
 * Anything else must be exactly "off", "on" or "auto"; malformed
 * values throw std::invalid_argument naming the variable and the
 * offending value.
 */
JitMode parseJitEnv(const char *value);

/** Active mode: setJitMode override, else HECTOR_JIT, else Auto. */
JitMode jitMode();

/** Override the mode (benches, tests). Takes effect immediately. */
void setJitMode(JitMode mode);

/** True when a host C++ compiler answers --version (cached). */
bool toolchainAvailable();

/** Directory JIT artifacts are written to (HECTOR_JIT_DIR override). */
std::string artifactDir();

/**
 * What this process's artifacts are built for: the compiler command,
 * the first line of its --version, and the host CPU's features (the
 * Linux /proc/cpuinfo flags, else the SIMD dispatch ISA). Computed
 * once per process. Part of every artifact name, so a restored
 * artifact directory (a CI cache from another runner, say) never
 * dlopens code built for a foreign ISA or compiler.
 */
const std::string &hostIdentity();

/** File stem of @p source's artifact when built under @p identity
 *  (compileModule uses hostIdentity()). */
std::string artifactStem(const std::string &source,
                         const std::string &identity);

/**
 * Specialized GEMM row kernel: y[j] += (scale * x[kk]) * panel[kk *
 * DOUT + j] for kk in [0, kb), j in [0, DOUT) with DOUT baked into
 * the code; kk ascends and zero x-values are skipped, exactly the
 * seed accumulation order.
 */
using GemmRowFn = void (*)(float *y, const float *x, float scale,
                           const float *panel, long long kb);

class JitModule;

namespace detail
{
/** dlopen @p so_path and read its registration table (impl seam). */
std::shared_ptr<const JitModule> loadModule(const std::string &so_path);
}

/** A dlopened kernel artifact; dlcloses on destruction. */
class JitModule
{
  public:
    ~JitModule();

    JitModule(const JitModule &) = delete;
    JitModule &operator=(const JitModule &) = delete;

    /** Kernel for (direction, instance kid); nullptr when the module
     *  holds none (the executor then runs the generic blocked path). */
    GemmRowFn kernel(bool backward, int kid) const;

    /** On-disk size of the .so, charged against the PlanCache budget. */
    std::size_t artifactBytes() const { return artifactBytes_; }

    const std::string &path() const { return path_; }
    std::size_t kernelCount() const { return kernels_.size(); }

  private:
    friend std::shared_ptr<const JitModule>
    detail::loadModule(const std::string &so_path);

    JitModule() = default;

    void *handle_ = nullptr;
    std::string path_;
    std::size_t artifactBytes_ = 0;
    /** key = (kid << 1) | backward. */
    std::unordered_map<std::uint64_t, GemmRowFn> kernels_;
};

/**
 * Compile @p source (a GeneratedCode::cpuSource) into a dlopened
 * module. Memoized in-process by content hash and on disk across
 * processes. Returns nullptr on any failure — mode Off, missing
 * toolchain, compile or dlopen error — after bumping the fallback
 * counter; never throws for environmental reasons.
 */
std::shared_ptr<const JitModule> compileModule(const std::string &source);

/**
 * Attach a JIT module to @p m (compiling m.code.cpuSource), honoring
 * jitMode(). The serving PlanCache calls this on every compile miss;
 * benches and tests call it directly. Returns true when a module was
 * attached.
 */
bool attach(CompiledModel &m);

/** Process-wide JIT counters (monotonic except loadedBytes). */
struct JitStats
{
    /** Toolchain invocations that produced a new artifact. */
    std::uint64_t compiles = 0;
    /** Module requests served from the in-process or on-disk cache. */
    std::uint64_t cacheHits = 0;
    /** Attach attempts that fell back to the generic blocked path. */
    std::uint64_t fallbacks = 0;
    /** Bytes of .so artifacts currently dlopened. */
    std::size_t loadedBytes = 0;
};

JitStats jitStats();

/** Reset the counters (tests). Loaded modules are unaffected. */
void resetJitStatsForTest();

/**
 * Absorb the JIT counters into the obs metrics registry as jit.*
 * gauges (jit.compiles, jit.cache_hits, jit.fallbacks,
 * jit.loaded_bytes). Idempotent like serve::absorbStats.
 */
void absorbJitStats(obs::Registry &reg, const std::string &prefix);

} // namespace hector::core::jit

#endif // HECTOR_CORE_JIT_HH
