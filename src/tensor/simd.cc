#include "tensor/simd.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define HECTOR_ISA_X86 1
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#define HECTOR_ISA_NEON 1
#endif

namespace hector::tensor::simd
{

namespace
{

// ------------------------------------------------------- scalar reference
//
// The portable fallback IS the bitwise reference: every vector path
// below computes the same per-element mul/add sequence, so these
// loops are also what rowPanelWith(1, ...) forces.

void
rowPanelScalar(float *y, const float *xrow, std::int64_t xstride,
               float scale, const float *panel, std::int64_t kb,
               std::int64_t n)
{
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = scale * xrow[kk * xstride];
        if (xv == 0.0f)
            continue;
        const float *prow = panel + kk * n;
        for (std::int64_t j = 0; j < n; ++j)
            y[j] += xv * prow[j];
    }
}

void
axpyScalar(float *y, float a, const float *x, std::int64_t n)
{
    for (std::int64_t j = 0; j < n; ++j)
        y[j] += a * x[j];
}

// --------------------------------------------------------------- AVX2
//
// Compiled with target("avx2") function attributes so the translation
// unit itself stays buildable at the baseline -march (the dispatcher
// only ever calls these after __builtin_cpu_supports("avx2")).
// Explicit _mm256_mul_ps + _mm256_add_ps — never an FMA — keeps each
// element's rounding sequence identical to the scalar loop.

#if defined(HECTOR_ISA_X86) && defined(__GNUC__)
#define HECTOR_HAVE_AVX2_DISPATCH 1

__attribute__((target("avx2"))) void
rowPanelAvx2(float *y, const float *xrow, std::int64_t xstride,
             float scale, const float *panel, std::int64_t kb,
             std::int64_t n)
{
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = scale * xrow[kk * xstride];
        if (xv == 0.0f)
            continue;
        const float *prow = panel + kk * n;
        const __m256 vx = _mm256_set1_ps(xv);
        std::int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
            const __m256 p = _mm256_loadu_ps(prow + j);
            const __m256 acc = _mm256_loadu_ps(y + j);
            _mm256_storeu_ps(y + j,
                             _mm256_add_ps(acc, _mm256_mul_ps(vx, p)));
        }
        for (; j < n; ++j)
            y[j] += xv * prow[j];
    }
}

__attribute__((target("avx2"))) void
axpyAvx2(float *y, float a, const float *x, std::int64_t n)
{
    const __m256 va = _mm256_set1_ps(a);
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 vx = _mm256_loadu_ps(x + j);
        const __m256 vy = _mm256_loadu_ps(y + j);
        _mm256_storeu_ps(y + j, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
    }
    for (; j < n; ++j)
        y[j] += a * x[j];
}

bool
avx2Supported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

#endif // HECTOR_HAVE_AVX2_DISPATCH

// --------------------------------------------------------------- NEON
//
// NEON is baseline on aarch64, so no target attribute or cpuid check
// is needed. vmulq + vaddq (not vfmaq) keeps the scalar rounding.

#if defined(HECTOR_ISA_NEON)

void
rowPanelNeon(float *y, const float *xrow, std::int64_t xstride,
             float scale, const float *panel, std::int64_t kb,
             std::int64_t n)
{
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = scale * xrow[kk * xstride];
        if (xv == 0.0f)
            continue;
        const float *prow = panel + kk * n;
        const float32x4_t vx = vdupq_n_f32(xv);
        std::int64_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const float32x4_t p = vld1q_f32(prow + j);
            const float32x4_t acc = vld1q_f32(y + j);
            vst1q_f32(y + j, vaddq_f32(acc, vmulq_f32(vx, p)));
        }
        for (; j < n; ++j)
            y[j] += xv * prow[j];
    }
}

void
axpyNeon(float *y, float a, const float *x, std::int64_t n)
{
    const float32x4_t va = vdupq_n_f32(a);
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t vx = vld1q_f32(x + j);
        const float32x4_t vy = vld1q_f32(y + j);
        vst1q_f32(y + j, vaddq_f32(vy, vmulq_f32(va, vx)));
    }
    for (; j < n; ++j)
        y[j] += a * x[j];
}

#endif // HECTOR_ISA_NEON

// ----------------------------------------------------------- dispatch

struct KernelTable
{
    void (*rowPanel)(float *, const float *, std::int64_t, float,
                     const float *, std::int64_t, std::int64_t);
    void (*axpy)(float *, float, const float *, std::int64_t);
    const char *isa;
    int lanes;
};

/** The only table on hosts without AVX2 or NEON. */
constexpr KernelTable kPortableTable = {rowPanelScalar, axpyScalar,
                                        "portable", 1};

/** Best ISA the running CPU offers, resolved once. */
const KernelTable &
active()
{
    static const KernelTable table = []() -> KernelTable {
#if defined(HECTOR_HAVE_AVX2_DISPATCH)
        if (avx2Supported())
            return {rowPanelAvx2, axpyAvx2, "avx2", 8};
#endif
#if defined(HECTOR_ISA_NEON)
        return {rowPanelNeon, axpyNeon, "neon", 4};
#else
        return kPortableTable;
#endif
    }();
    return table;
}

} // namespace

const char *
isaName()
{
    return active().isa;
}

int
vectorWidth()
{
    return active().lanes;
}

void
rowPanel(float *y, const float *xrow, std::int64_t xstride, float scale,
         const float *panel, std::int64_t kb, std::int64_t n)
{
    active().rowPanel(y, xrow, xstride, scale, panel, kb, n);
}

void
rowPanelWith(int vec_width, float *y, const float *xrow,
             std::int64_t xstride, float scale, const float *panel,
             std::int64_t kb, std::int64_t n)
{
    // 1 forces the scalar reference; any other width runs the
    // dispatched kernel (which is the widest the CPU offers — asking
    // for 4 on an 8-lane machine still computes identical bits, so
    // the tuner's sweep is a pure timing experiment).
    if (vec_width == 1)
        rowPanelScalar(y, xrow, xstride, scale, panel, kb, n);
    else
        active().rowPanel(y, xrow, xstride, scale, panel, kb, n);
}

void
axpyRange(float *y, float a, const float *x, std::int64_t n)
{
    active().axpy(y, a, x, n);
}

} // namespace hector::tensor::simd
