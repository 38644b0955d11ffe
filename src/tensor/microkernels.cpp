// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off
// on x86-64 (see CMakeLists.txt).  -ffp-contract=off matters: with FMA
// codegen enabled GCC would otherwise contract the scalar fallback's
// `c + a*b` into a single-rounding fmadd and break bitwise identity with
// the ophelp baseline built elsewhere without FMA.  Intrinsics are
// unaffected either way — the AVX2 kernel uses explicit mul+add.
#include "tensor/microkernels.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define LMMIR_MK_HAVE_AVX2 1
#else
#define LMMIR_MK_HAVE_AVX2 0
#endif

namespace lmmir::tensor::mk {

bool compiled_with_avx2() { return LMMIR_MK_HAVE_AVX2 != 0; }

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool has = [] {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return has;
#else
  return false;
#endif
}

bool simd_enabled() {
  static const bool enabled = [] {
    if (!compiled_with_avx2() || !cpu_has_avx2()) return false;
    const char* v = std::getenv("LMMIR_SIMD");
    return !(v && std::string_view(v) == "0");
  }();
  return enabled;
}

const char* active_kernel() { return simd_enabled() ? "avx2" : "scalar"; }

void gemm_acc_scalar(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_acc_avx2(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n) {
#if LMMIR_MK_HAVE_AVX2
  if (!cpu_has_avx2())
    throw std::runtime_error("gemm_acc_avx2: CPU lacks AVX2/FMA");
  const std::size_t n8 = n & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // same sparsity shortcut as the scalar kernel
      const float* brow = b + kk * n;
      const __m256 vav = _mm256_set1_ps(av);
      std::size_t j = 0;
      for (; j < n8; j += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + j);
        const __m256 vc = _mm256_loadu_ps(crow + j);
        // mul then add (two roundings), exactly like `c += av * b` compiled
        // without contraction — NOT _mm256_fmadd_ps, whose single rounding
        // would diverge from the eager baseline.
        _mm256_storeu_ps(crow + j,
                         _mm256_add_ps(vc, _mm256_mul_ps(vav, vb)));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
#else
  (void)a;
  (void)b;
  (void)c;
  (void)m;
  (void)k;
  (void)n;
  throw std::runtime_error("gemm_acc_avx2: binary built without AVX2");
#endif
}

void gemm_acc(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  if (simd_enabled())
    gemm_acc_avx2(a, b, c, m, k, n);
  else
    gemm_acc_scalar(a, b, c, m, k, n);
}

void im2col(const float* x, std::size_t cin, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t oh, std::size_t ow,
            int stride, int pad_h, int pad_w, float* col) {
  const std::size_t cols = oh * ow;
  const long s = stride;
  for (std::size_t kj = 0; kj < kw; ++kj) {
    // Output columns [ox_lo, ox_hi) read input column ox*s + off inside
    // [0, w); the rest of each row is zero padding.
    const long off = static_cast<long>(kj) - pad_w;
    const long first = off >= 0 ? 0 : (-off + s - 1) / s;
    const long last = static_cast<long>(w) - 1 - off;  // max ox*s
    const std::size_t ox_lo =
        std::min(ow, static_cast<std::size_t>(std::max(0L, first)));
    const std::size_t ox_hi =
        last < 0 ? ox_lo
                 : std::clamp(static_cast<std::size_t>(last / s + 1), ox_lo,
                              ow);
    for (std::size_t c = 0; c < cin; ++c) {
      for (std::size_t ki = 0; ki < kh; ++ki) {
        float* dst = col + ((c * kh + ki) * kw + kj) * cols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* drow = dst + oy * ow;
          const long iy =
              static_cast<long>(oy) * s - pad_h + static_cast<long>(ki);
          if (iy < 0 || iy >= static_cast<long>(h)) {
            std::fill_n(drow, ow, 0.0f);
            continue;
          }
          const float* xrow = x + (c * h + static_cast<std::size_t>(iy)) * w;
          std::fill_n(drow, ox_lo, 0.0f);
          if (s == 1) {
            std::copy_n(xrow + (static_cast<long>(ox_lo) + off), ox_hi - ox_lo,
                        drow + ox_lo);
          } else {
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
              drow[ox] = xrow[static_cast<long>(ox) * s + off];
          }
          std::fill_n(drow + ox_hi, ow - ox_hi, 0.0f);
        }
      }
    }
  }
}

}  // namespace lmmir::tensor::mk
