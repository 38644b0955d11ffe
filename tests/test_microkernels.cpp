// microkernels: the dispatched GEMM must be bitwise identical to the
// scalar reference on every shape (SIMD is a speed knob, never a
// semantics knob), and im2col must match a naive patch-gather.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "tensor/microkernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
namespace mk = tensor::mk;

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal(0.0f, 1.0f);
  return v;
}

/// Run both kernels from identical accumulator states and require bitwise
/// equality of every output element.
void expect_gemm_identical(util::Rng& rng, std::size_t m, std::size_t k,
                           std::size_t n, bool zero_rows = false) {
  std::vector<float> a = random_vec(rng, m * k);
  if (zero_rows)  // exercise the av == 0.0f inner-loop skip
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  const std::vector<float> b = random_vec(rng, k * n);
  // Non-zero accumulator start: the kernels accumulate, they don't store.
  const std::vector<float> c0 = random_vec(rng, m * n);

  std::vector<float> c_ref = c0;
  mk::gemm_acc_scalar(a.data(), b.data(), c_ref.data(), m, k, n);

  std::vector<float> c_dispatch = c0;
  mk::gemm_acc(a.data(), b.data(), c_dispatch.data(), m, k, n);
  for (std::size_t i = 0; i < c_ref.size(); ++i)
    ASSERT_EQ(c_ref[i], c_dispatch[i])
        << "dispatched kernel (" << mk::active_kernel() << ") diverged at "
        << i << " for m=" << m << " k=" << k << " n=" << n;

  if (mk::compiled_with_avx2() && mk::cpu_has_avx2()) {
    std::vector<float> c_avx = c0;
    mk::gemm_acc_avx2(a.data(), b.data(), c_avx.data(), m, k, n);
    for (std::size_t i = 0; i < c_ref.size(); ++i)
      ASSERT_EQ(c_ref[i], c_avx[i])
          << "avx2 kernel diverged at " << i << " for m=" << m << " k=" << k
          << " n=" << n;
  }
}

TEST(Microkernel, DispatchReportsConsistentState) {
  // simd_enabled() implies both the binary and the CPU carry AVX2; the
  // active kernel string matches the decision.
  if (mk::simd_enabled()) {
    EXPECT_TRUE(mk::compiled_with_avx2());
    EXPECT_TRUE(mk::cpu_has_avx2());
    EXPECT_STREQ(mk::active_kernel(), "avx2");
  } else {
    EXPECT_STREQ(mk::active_kernel(), "scalar");
  }
}

TEST(Microkernel, GemmRandomizedShapesBitwise) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.randint(1, 9));
    const std::size_t k = static_cast<std::size_t>(rng.randint(1, 33));
    const std::size_t n = static_cast<std::size_t>(rng.randint(1, 40));
    expect_gemm_identical(rng, m, k, n);
  }
}

TEST(Microkernel, GemmVectorRemainderTails) {
  // Every n in [1, 17] crosses the 8-lane boundary somewhere: n < 8 is
  // pure tail, n = 8/16 is pure vector, the rest mix.
  util::Rng rng(77);
  for (std::size_t n = 1; n <= 17; ++n) expect_gemm_identical(rng, 3, 5, n);
}

TEST(Microkernel, GemmZeroRowSkipPreserved) {
  util::Rng rng(9);
  expect_gemm_identical(rng, 6, 12, 19, /*zero_rows=*/true);
  // All-zero A: C must stay exactly the initial accumulator.
  const std::size_t m = 4, k = 7, n = 11;
  std::vector<float> a(m * k, 0.0f);
  std::vector<float> b = random_vec(rng, k * n);
  std::vector<float> c0 = random_vec(rng, m * n);
  std::vector<float> c = c0;
  mk::gemm_acc(a.data(), b.data(), c.data(), m, k, n);
  EXPECT_EQ(c, c0);
}

TEST(Microkernel, GemmDegenerateDims) {
  // m, k or n of zero must be a no-op (no reads, no writes).
  util::Rng rng(5);
  std::vector<float> a = random_vec(rng, 12);
  std::vector<float> b = random_vec(rng, 12);
  std::vector<float> c0 = random_vec(rng, 12);
  std::vector<float> c = c0;
  mk::gemm_acc(a.data(), b.data(), c.data(), 0, 3, 4);
  EXPECT_EQ(c, c0);
  mk::gemm_acc(a.data(), b.data(), c.data(), 3, 0, 4);
  EXPECT_EQ(c, c0);
  mk::gemm_acc(a.data(), b.data(), c.data(), 3, 4, 0);
  EXPECT_EQ(c, c0);
}

TEST(Microkernel, GemmUnalignedOffsets) {
  // The plan executor hands the kernels interior pointers of a flat
  // arena; nothing guarantees 32-byte alignment.  Slice at odd offsets.
  util::Rng rng(31);
  const std::size_t m = 4, k = 6, n = 13;
  std::vector<float> backing = random_vec(rng, 1 + m * k + 3 + k * n + 5 +
                                                   m * n);
  const float* a = backing.data() + 1;
  const float* b = backing.data() + 1 + m * k + 3;
  std::vector<float> c0 = random_vec(rng, m * n + 1);
  std::vector<float> c_ref = c0, c_disp = c0;
  mk::gemm_acc_scalar(a, b, c_ref.data() + 1, m, k, n);
  mk::gemm_acc(a, b, c_disp.data() + 1, m, k, n);
  EXPECT_EQ(c_ref, c_disp);
}

TEST(Microkernel, Avx2ThrowsWhereUnavailable) {
  if (mk::compiled_with_avx2() && mk::cpu_has_avx2())
    GTEST_SKIP() << "AVX2 available; the guard path is not reachable here";
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  EXPECT_THROW(mk::gemm_acc_avx2(a.data(), b.data(), c.data(), 2, 2, 2),
               std::runtime_error);
}

/// Naive reference: col[(ci*kh*kw + ki*kw + kj) * (oh*ow) + oy*ow + ox].
std::vector<float> im2col_reference(const std::vector<float>& x,
                                    std::size_t cin, std::size_t h,
                                    std::size_t w, std::size_t kh,
                                    std::size_t kw, std::size_t oh,
                                    std::size_t ow, int stride, int pad_h,
                                    int pad_w) {
  std::vector<float> col(cin * kh * kw * oh * ow, 0.0f);
  for (std::size_t ci = 0; ci < cin; ++ci)
    for (std::size_t ki = 0; ki < kh; ++ki)
      for (std::size_t kj = 0; kj < kw; ++kj)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long iy = static_cast<long>(oy) * stride - pad_h +
                            static_cast<long>(ki);
            const long ix = static_cast<long>(ox) * stride - pad_w +
                            static_cast<long>(kj);
            float v = 0.0f;
            if (iy >= 0 && iy < static_cast<long>(h) && ix >= 0 &&
                ix < static_cast<long>(w))
              v = x[(ci * h + static_cast<std::size_t>(iy)) * w +
                    static_cast<std::size_t>(ix)];
            col[((ci * kh + ki) * kw + kj) * (oh * ow) + oy * ow + ox] = v;
          }
  return col;
}

TEST(Microkernel, Im2colMatchesReference) {
  util::Rng rng(88);
  struct Case {
    std::size_t cin, h, w, kh, kw;
    int stride, pad_h, pad_w;
  };
  const Case cases[] = {
      {1, 5, 5, 3, 3, 1, 1, 1},   // classic same-pad 3x3
      {2, 6, 4, 1, 1, 1, 0, 0},   // 1x1 kernel, pure channel gather
      {3, 7, 7, 3, 3, 2, 1, 1},   // strided
      {1, 4, 4, 2, 2, 3, 0, 0},   // stride > kernel (skipped pixels)
      {2, 5, 3, 3, 2, 1, 2, 0},   // asymmetric pad, rectangular kernel
      {1, 3, 2, 3, 5, 1, 1, 2},   // kernel wider than the input
      {2, 2, 2, 1, 1, 1, 2, 2},   // whole rows and columns of padding
      {1, 9, 8, 7, 7, 3, 3, 3},   // 7x7 stem geometry, strided
  };
  for (const auto& c : cases) {
    const std::size_t oh =
        static_cast<std::size_t>((static_cast<long>(c.h) + 2 * c.pad_h -
                                  static_cast<long>(c.kh)) / c.stride) + 1;
    const std::size_t ow =
        static_cast<std::size_t>((static_cast<long>(c.w) + 2 * c.pad_w -
                                  static_cast<long>(c.kw)) / c.stride) + 1;
    const std::vector<float> x = random_vec(rng, c.cin * c.h * c.w);
    std::vector<float> col(c.cin * c.kh * c.kw * oh * ow, -777.0f);
    mk::im2col(x.data(), c.cin, c.h, c.w, c.kh, c.kw, oh, ow, c.stride,
               c.pad_h, c.pad_w, col.data());
    const std::vector<float> ref = im2col_reference(
        x, c.cin, c.h, c.w, c.kh, c.kw, oh, ow, c.stride, c.pad_h, c.pad_w);
    ASSERT_EQ(col.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(col[i], ref[i])
          << "im2col diverged at " << i << " (cin=" << c.cin << " h=" << c.h
          << " w=" << c.w << " kh=" << c.kh << " kw=" << c.kw
          << " stride=" << c.stride << ")";
  }
}

}  // namespace
