#pragma once
// Pluggable preconditioners for the PCG solver.  The golden IR-drop solver
// spends all of its time in conjugate-gradient iterations, so the choice of
// preconditioner directly bounds the size of the netlist corpus we can
// generate ground truth for.  Three classic SPD preconditioners are
// provided behind one interface:
//
//   None    — identity; pure CG, the iteration-count baseline.
//   Jacobi  — diagonal scaling; O(n) setup, embarrassingly parallel apply,
//             effective on diagonally dominant PDN meshes; the default,
//             and the fastest kind on wall time on large systems
//             (docs/SOLVER.md has the measured crossover).
//   IC0     — incomplete Cholesky with zero fill-in; strongest
//             iteration reduction, triangular-solve apply; fastest on
//             wall time on small systems.
//
// The IC(0) triangular sweeps are level-scheduled (see
// sparse/trisolve.hpp): rows are grouped into dependency wavefronts so the
// apply fans out over the runtime thread pool while staying
// bitwise-identical for any thread count.
//
// Setup happens in the factory.  Instances are immutable after
// construction but apply() reuses an internal scratch buffer, so use one
// instance per concurrently-running solve.  Every kind copies what it
// needs from the matrix, so an in-place numeric refresh of the matrix
// values (pdn::SolverContext) leaves a built instance self-contained but
// stale: rebuild it through the factory.
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sparse/csr.hpp"

namespace lmmir::sparse {

enum class PreconditionerKind { None, Jacobi, Ic0 };

/// Canonical lower-case key ("none", "jacobi", "ic0").
const char* to_string(PreconditionerKind kind);

/// Parse a factory key (case-insensitive); nullopt for unknown keys.
std::optional<PreconditionerKind> preconditioner_kind_from_string(
    std::string_view key);

/// Read the LMMIR_PRECOND environment variable.  Returns `fallback` when
/// unset; warns (util::log_warn) and returns `fallback` on unknown keys.
/// Shared by the pipeline and the CLI entry points so they accept exactly
/// the same spellings.
PreconditionerKind preconditioner_kind_from_env(
    PreconditionerKind fallback = PreconditionerKind::Jacobi);

/// Application side of a preconditioner M ~ A: z = M⁻¹ r.  The factored
/// state is immutable after construction, but apply() reuses an internal
/// scratch buffer: do NOT share one instance between concurrently-running
/// solves — build one per solve thread instead.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual PreconditionerKind kind() const = 0;
  virtual void apply(const std::vector<double>& r,
                     std::vector<double>& z) const = 0;
  const char* name() const { return to_string(kind()); }
};

/// Build a preconditioner for SPD matrix `a`.  IC0 retries with a scaled
/// diagonal shift when the factorization meets a non-positive pivot (the
/// matrix is then only semi-definite or badly conditioned); it throws
/// std::runtime_error if the shift retries are exhausted.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a);

/// String-keyed factory: throws std::invalid_argument on unknown keys.
std::unique_ptr<Preconditioner> make_preconditioner(std::string_view key,
                                                    const CsrMatrix& a);

}  // namespace lmmir::sparse
