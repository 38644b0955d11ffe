#pragma once
// Preconditioner-agnostic Preconditioned Conjugate Gradient.  PDN
// conductance matrices are SPD and diagonally dominant, for which Jacobi
// PCG converges in a few hundred iterations even on 10^5-node systems;
// IC(0) (see sparse/preconditioner.hpp) cuts the count further, though not
// the wall time on large systems.
//
// Hot loops (SpMV, dot, axpy, Jacobi apply) fan out over the runtime
// thread pool under the bitwise-determinism contract: dot products reduce
// over fixed-size blocks whose partials are summed serially in block
// order, so results are identical for any thread count.
#include <cstddef>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"

namespace lmmir::sparse {

struct CgOptions {
  std::size_t max_iterations = 20000;
  double tolerance = 1e-10;  // on ||r|| / ||b||
  PreconditionerKind preconditioner = PreconditionerKind::Jacobi;
  bool record_residual_history = true;
};

struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual = 0.0;  // final relative residual, always finite
  bool converged = false;
  /// True when the solve started from a caller-supplied iterate.
  bool warm_started = false;
  /// ||b - A·x₀|| / ||b|| before the first iteration (1.0 for a cold
  /// start): how much work the warm start already paid for.
  double initial_residual = 1.0;
  /// True when the iteration degenerated (semi-definite matrix, indefinite
  /// preconditioner, overflow): x holds the last usable iterate and
  /// `residual` stays finite — never NaN.
  bool breakdown = false;
  PreconditionerKind preconditioner = PreconditionerKind::Jacobi;
  /// Relative residual after each accepted iteration (telemetry; filled
  /// when CgOptions::record_residual_history).
  std::vector<double> residual_history;
  double precond_setup_seconds = 0.0;  // factory time (0 when injected)
  double precond_apply_seconds = 0.0;  // summed M⁻¹ applications
  /// Deterministic SpMV work counts: products of A with a vector, and the
  /// bytes those products streamed (bytes_per_spmv sums).
  std::size_t spmv_count = 0;
  std::size_t spmv_bytes = 0;
  double spmv_seconds = 0.0;  // wall time inside those products
};

/// Solve A x = b for SPD A. Throws std::invalid_argument on size mismatch.
/// `precond` injects a prebuilt preconditioner, amortizing setup across
/// sequential solves of the same matrix (apply() is not concurrency-safe;
/// see preconditioner.hpp); when null, one is built from
/// `opts.preconditioner`.  `x0` warm-starts the iteration from a previous
/// iterate (e.g. the solution of a nearby system): the initial residual
/// becomes b - A·x₀ and convergence is still measured relative to ||b||,
/// so a good guess converges in fewer iterations — possibly zero.  When
/// null the solve starts from zero exactly as before (bitwise-identical
/// to the pre-warm-start implementation).
CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            const CgOptions& opts = {},
                            const Preconditioner* precond = nullptr,
                            const std::vector<double>* x0 = nullptr);

}  // namespace lmmir::sparse
