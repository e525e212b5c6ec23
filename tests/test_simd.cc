/**
 * @file
 * Property tests for the SIMD dispatch shim (tensor/simd): ISA
 * reporting, and tail/alignment/stride edge cases of the row-panel and
 * axpy micro-kernels against literal scalar loops. The kernels' use
 * inside execGemm is pinned against the seed oracle at 1/2/4 threads
 * in test_executor.cc.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "tensor/simd.hh"

namespace
{

namespace simd = hector::tensor::simd;

TEST(SimdDispatch, ReportsConsistentIsaAndWidth)
{
    const std::string isa = simd::isaName();
    const int lanes = simd::vectorWidth();
    if (isa == "avx2")
        EXPECT_EQ(lanes, 8);
    else if (isa == "neon")
        EXPECT_EQ(lanes, 4);
    else
        EXPECT_EQ(lanes, 1);
}

/**
 * rowPanel against a literal scalar reference across sizes that are
 * deliberately not multiples of any lane width, with offset
 * (unaligned) pointers and a strided x walk.
 */
TEST(SimdRowPanel, BitwiseAcrossTailsAndAlignment)
{
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

    for (std::int64_t n : {1, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33}) {
        for (std::int64_t kb : {1, 2, 7, 64}) {
            for (std::int64_t off : {0, 1, 3}) { // misalign the views
                std::vector<float> x(static_cast<std::size_t>(kb + off));
                std::vector<float> panel(
                    static_cast<std::size_t>(kb * n + off));
                std::vector<float> y_ref(
                    static_cast<std::size_t>(n + off), 0.5f);
                for (auto &v : x)
                    v = dist(rng);
                x[static_cast<std::size_t>(off)] = 0.0f; // zero-skip
                for (auto &v : panel)
                    v = dist(rng);
                std::vector<float> y_simd = y_ref;

                // Scalar reference: the seed's exact loop.
                for (std::int64_t kk = 0; kk < kb; ++kk) {
                    const float xv =
                        1.25f * x[static_cast<std::size_t>(kk + off)];
                    if (xv == 0.0f)
                        continue;
                    for (std::int64_t j = 0; j < n; ++j)
                        y_ref[static_cast<std::size_t>(j + off)] +=
                            xv *
                            panel[static_cast<std::size_t>(kk * n + j +
                                                           off)];
                }

                simd::rowPanel(y_simd.data() + off, x.data() + off, 1,
                               1.25f, panel.data() + off, kb, n);
                EXPECT_EQ(std::memcmp(y_ref.data(), y_simd.data(),
                                      y_ref.size() * sizeof(float)),
                          0)
                    << "n=" << n << " kb=" << kb << " off=" << off;

                // Forced widths compute identical bits too.
                for (int vw : {0, 1, 4, 8}) {
                    std::vector<float> y_w(
                        static_cast<std::size_t>(n + off), 0.5f);
                    simd::rowPanelWith(vw, y_w.data() + off,
                                       x.data() + off, 1, 1.25f,
                                       panel.data() + off, kb, n);
                    EXPECT_EQ(std::memcmp(y_ref.data(), y_w.data(),
                                          y_ref.size() * sizeof(float)),
                              0)
                        << "vw=" << vw << " n=" << n << " kb=" << kb;
                }
            }
        }
    }
}

/** Strided x (transposed GEMM walk) stays bitwise too. */
TEST(SimdRowPanel, BitwiseWithStridedX)
{
    std::mt19937_64 rng(6);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    const std::int64_t kb = 33, n = 17, stride = 5;
    std::vector<float> x(static_cast<std::size_t>(kb * stride));
    std::vector<float> panel(static_cast<std::size_t>(kb * n));
    for (auto &v : x)
        v = dist(rng);
    for (auto &v : panel)
        v = dist(rng);
    std::vector<float> y_ref(static_cast<std::size_t>(n), 0.0f);
    std::vector<float> y_simd = y_ref;
    for (std::int64_t kk = 0; kk < kb; ++kk) {
        const float xv = x[static_cast<std::size_t>(kk * stride)];
        if (xv == 0.0f)
            continue;
        for (std::int64_t j = 0; j < n; ++j)
            y_ref[static_cast<std::size_t>(j)] +=
                xv * panel[static_cast<std::size_t>(kk * n + j)];
    }
    simd::rowPanel(y_simd.data(), x.data(), stride, 1.0f, panel.data(),
                   kb, n);
    EXPECT_EQ(std::memcmp(y_ref.data(), y_simd.data(),
                          y_ref.size() * sizeof(float)),
              0);
}

/**
 * axpyRange (the weight-gradient row kernel) against a literal loop,
 * for every length up to two AVX2 vectors plus a tail, through views
 * misaligned by 0..3 floats. One guard element past the end must stay
 * untouched.
 */
TEST(SimdAxpy, BitwiseAcrossTailsAndAlignment)
{
    std::mt19937_64 rng(10);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

    for (std::int64_t n = 0; n <= 17; ++n) {
        for (std::int64_t off = 0; off <= 3; ++off) {
            std::vector<float> x(static_cast<std::size_t>(n + off + 1));
            std::vector<float> y_ref(
                static_cast<std::size_t>(n + off + 1));
            for (auto &v : x)
                v = dist(rng);
            for (auto &v : y_ref)
                v = dist(rng);
            std::vector<float> y_simd = y_ref;
            const float a = dist(rng);

            for (std::int64_t j = 0; j < n; ++j)
                y_ref[static_cast<std::size_t>(j + off)] +=
                    a * x[static_cast<std::size_t>(j + off)];
            simd::axpyRange(y_simd.data() + off, a, x.data() + off, n);
            EXPECT_EQ(std::memcmp(y_ref.data(), y_simd.data(),
                                  y_ref.size() * sizeof(float)),
                      0)
                << "n=" << n << " off=" << off;
        }
    }
}

} // namespace
