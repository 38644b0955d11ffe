#pragma once
// Internal helpers shared by the op translation units. Not part of the
// public API.
#include <algorithm>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

namespace lmmir::tensor::ophelp {

inline void check_same_shape(const Tensor& a, const Tensor& b,
                             const char* op) {
  if (!same_shape(a.shape(), b.shape()))
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
}

/// Wire autograd edges onto `out`. Call only when needs_grad(...) is true.
inline void attach(const std::shared_ptr<TensorImpl>& out,
                   std::initializer_list<Tensor> parents,
                   std::function<void()> backward) {
  out->requires_grad = true;
  for (const auto& p : parents)
    if (p.defined()) out->parents.push_back(p.impl());
  out->backward_fn = std::move(backward);
}

/// C[M,N] += A[M,K] * B[K,N]   (row-major, ikj loop order for locality)
inline void gemm_acc(const float* a, const float* b, float* c, std::size_t m,
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

/// C[M,N] += A[K,M]ᵀ * B[K,N].  A's rows are `lda` floats apart (0 means
/// m, a dense A), so a column slice of a wider matrix can serve as A.
inline void gemm_at_b_acc(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          std::size_t lda = 0) {
  if (lda == 0) lda = m;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * lda;
    const float* brow = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C[M,K] += A[M,N] * B[K,N]ᵀ
inline void gemm_a_bt_acc(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += arow[j] * brow[j];
      crow[kk] += acc;
    }
  }
}

/// C[M,K] += A[M,N] * B[K,N]ᵀ over the output columns [k_lo, k_hi), with B
/// handed over transposed (bt = Bᵀ, stored [N,K]).  Bitwise identical to
/// gemm_a_bt_acc on those columns: every C[i,kk] receives one add of an
/// accumulator that starts at 0 and sums A[i,j] * B[kk,j] for j ascending.
/// Keeping a row of such accumulators lets the j loop vectorize across kk,
/// where the dot-product form waits on one float-add chain per element.
inline void gemm_a_bt_acc_pretransposed(const float* a, const float* bt,
                                        float* c, std::size_t m,
                                        std::size_t n, std::size_t k,
                                        std::size_t k_lo, std::size_t k_hi) {
  constexpr std::size_t kTile = 256;  // accumulator row, on the stack
  float acc[kTile];
  for (std::size_t k0 = k_lo; k0 < k_hi; k0 += kTile) {
    const std::size_t width = std::min(kTile, k_hi - k0);
    for (std::size_t i = 0; i < m; ++i) {
      std::fill_n(acc, width, 0.0f);
      const float* arow = a + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float av = arow[j];
        const float* brow = bt + j * k + k0;
        for (std::size_t kk = 0; kk < width; ++kk) acc[kk] += av * brow[kk];
      }
      float* crow = c + i * k + k0;
      for (std::size_t kk = 0; kk < width; ++kk) crow[kk] += acc[kk];
    }
  }
}

}  // namespace lmmir::tensor::ophelp
