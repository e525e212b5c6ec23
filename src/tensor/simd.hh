/**
 * @file
 * Portable SIMD micro-kernels behind a runtime dispatch shim.
 *
 * The executor's blocked GEMM paths (core/executor.cc) run two inner
 * bodies: the packed-panel row kernel (rowPanel) for identity and
 * scatter outputs, and axpy (axpyRange) for weight-gradient rows.
 * Both are of the form y[j] += a * x[j] per output element j.
 * Elements are independent, so vectorizing the j loop performs
 * exactly one multiply rounding and one add rounding per element —
 * the same bits as the scalar loop at every lane width, provided the
 * compiler never contracts mul+add into an FMA (the build passes
 * -ffp-contract=off, and the intrinsic paths use explicit mul/add).
 *
 * Dispatch: the best ISA (AVX2 on x86-64 via __builtin_cpu_supports,
 * NEON on aarch64, portable scalar otherwise) is resolved once per
 * process into a function-pointer table. GemmSchedule::vecWidth == 1
 * forces the scalar row kernel (rowPanelWith), so the scalar and the
 * vector kernel can be timed in the same binary.
 */

#ifndef HECTOR_TENSOR_SIMD_HH
#define HECTOR_TENSOR_SIMD_HH

#include <cstdint>

namespace hector::tensor::simd
{

/** Name of the dispatched ISA: "avx2", "neon" or "portable". */
const char *isaName();

/** Lane count of the dispatched ISA (8 for AVX2, 4 for NEON, 1). */
int vectorWidth();

/**
 * Row x packed-panel micro-kernel — the inner two loops of every
 * blocked GEMM path. For kk in [0, kb): xv = scale * xrow[kk *
 * xstride]; zero xv skipped; y[j] += xv * panel[kk * n + j] for j in
 * [0, n). kk ascends and each output element sees one mul + one add
 * per contribution: bit-identical to the seed order at any lane
 * width.
 */
void rowPanel(float *y, const float *xrow, std::int64_t xstride,
              float scale, const float *panel, std::int64_t kb,
              std::int64_t n);

/**
 * rowPanel with a forced vector width from a GemmSchedule: 0 = the
 * dispatched default, 1 = scalar, otherwise the requested lane count
 * when the dispatched ISA provides it (falls back to the default
 * path; results are bit-identical either way, only speed differs).
 */
void rowPanelWith(int vec_width, float *y, const float *xrow,
                  std::int64_t xstride, float scale, const float *panel,
                  std::int64_t kb, std::int64_t n);

/** y[j] += a * x[j] (bitwise-safe). */
void axpyRange(float *y, float a, const float *x, std::int64_t n);

} // namespace hector::tensor::simd

#endif // HECTOR_TENSOR_SIMD_HH
