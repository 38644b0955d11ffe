#pragma once
// CPU microkernels for the matmul/conv inner loops.
//
// The plan executor (tensor/plan.hpp) replays recorded forwards through
// these kernels instead of the header-inline ophelp loops, and the eager
// conv2d forward runs the same GEMM.  Two variants exist for the
// accumulating GEMM:
//
//   * gemm_acc_scalar — the reference: the exact loop nest of
//     ophelp::gemm_acc (ikj order, zero-row skip);
//   * gemm_acc_avx2   — 8-lane AVX2 over the output column index j only.
//     Each output element still sees the same scalar arithmetic
//     (one mul, one add per (i,kk,j) — deliberately NOT vfmadd: FMA's
//     single rounding would diverge from the eager baseline), the
//     zero-row skip is preserved, and the j remainder runs the scalar
//     tail, so results are bitwise identical to the scalar kernel.
//
// gemm_acc() dispatches once per process: AVX2 requires the binary to
// carry the AVX2 codegen (this TU is compiled with -mavx2 -mfma
// -ffp-contract=off on x86-64), the CPU to report AVX2+FMA, and
// LMMIR_SIMD to not be "0".  Everything else falls back to the scalar
// reference — the dispatch is a behavior-preserving speed knob, never a
// semantics knob (tests/test_microkernels.cpp enforces the identity).
//
// im2col lives here too so the eager conv2d and the plan replay share one
// patch-gather implementation (pure copies, no float arithmetic).
#include <cstddef>

namespace lmmir::tensor::mk {

/// True when this binary contains the AVX2 kernels at all (compiled on
/// x86-64 with the per-file -mavx2 flags).
bool compiled_with_avx2();

/// Raw CPUID probe: the host supports AVX2 and FMA.  Ignores LMMIR_SIMD —
/// tests use it to decide whether gemm_acc_avx2 may be called directly.
bool cpu_has_avx2();

/// The process-wide dispatch decision, read once:
/// compiled_with_avx2() && cpu_has_avx2() && LMMIR_SIMD != "0".
bool simd_enabled();

/// "avx2" or "scalar" — what gemm_acc() actually runs.
const char* active_kernel();

/// C[M,N] += A[M,K] * B[K,N]  (row-major; reference scalar kernel,
/// identical to ophelp::gemm_acc).
void gemm_acc_scalar(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);

/// Same contract, AVX2 body.  Bitwise identical to the scalar kernel by
/// construction.  Throws std::runtime_error when the binary or the CPU
/// lacks AVX2 (call cpu_has_avx2() && compiled_with_avx2() first).
void gemm_acc_avx2(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n);

/// Dispatched entry point used by the plan executor.
void gemm_acc(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n);

/// col[cin*kh*kw, oh*ow] patch-gather for one NCHW sample with zero
/// padding (shared by the eager conv2d and the plan replay).
void im2col(const float* x, std::size_t cin, std::size_t h, std::size_t w,
            std::size_t kh, std::size_t kw, std::size_t oh, std::size_t ow,
            int stride, int pad_h, int pad_w, float* col);

}  // namespace lmmir::tensor::mk
