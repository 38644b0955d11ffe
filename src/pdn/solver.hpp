#pragma once
// Golden static IR-drop solver.  Performs reduced modified nodal analysis:
// voltage-source-pinned nodes are eliminated (Dirichlet boundary), the
// remaining conductance system G v = i is SPD and solved with
// preconditioned CG (Jacobi / IC0, see sparse/preconditioner.hpp).
// This is the "commercial tool" stand-in that produces ground truth for
// every experiment, so it carries per-solve telemetry (iterations,
// residual history, preconditioner setup/apply time).
#include <cstddef>
#include <vector>

#include "pdn/circuit.hpp"
#include "sparse/cg.hpp"

namespace lmmir::pdn {

class SolverContext;  // solver_context.hpp: reuse cache for repeated solves

struct SolveOptions {
  sparse::CgOptions cg;  // tolerance, iteration cap, preconditioner kind
  /// Optional reuse cache.  When set, solve_ir_drop routes through the
  /// context: topologically identical circuits get a numeric refresh on
  /// the cached sparsity pattern, a reused preconditioner, and a
  /// warm-started PCG instead of a from-scratch solve.
  SolverContext* context = nullptr;
  /// Context solves: start PCG from the previous iterate when the cached
  /// pattern matches (see conjugate_gradient's x0).
  bool warm_start = true;
  /// Context solves: keep the built preconditioner across solves whose
  /// matrix values are unchanged (identical re-solves, current/voltage
  /// load sweeps) so IC(0) setup is paid once.  A conductance change
  /// always rebuilds — a stale factor stays SPD but was measured to cost
  /// more extra PCG iterations than its setup saves.
  bool reuse_preconditioner = true;
};

/// The reduced MNA system of a circuit, exposed so tests and benches can
/// reach the raw SPD matrix the solver iterates on.
struct AssembledSystem {
  sparse::CsrMatrix matrix;            // reduced conductance matrix G
  std::vector<double> rhs;             // current injections i
  std::vector<std::ptrdiff_t> unknown_of;  // netlist node -> unknown (-1: none)
};

/// Stamp the reduced conductance system (pinned nodes folded into the rhs,
/// unpowered islands excluded).
AssembledSystem assemble_ir_system(const Circuit& circuit);

struct Solution {
  /// Voltage per netlist node (pinned nodes hold their source value;
  /// unpowered-island nodes are reported at vdd, i.e. zero drop).
  std::vector<double> node_voltage;
  /// IR drop per node: vdd - voltage.
  std::vector<double> ir_drop;
  double vdd = 0.0;
  double worst_drop = 0.0;
  std::size_t unknowns = 0;       // size of the reduced system
  std::size_t cg_iterations = 0;
  double cg_residual = 0.0;
  bool converged = false;
  bool breakdown = false;         // PCG degenerated (see CgResult::breakdown)
  // Solver telemetry.
  sparse::PreconditionerKind preconditioner = sparse::PreconditionerKind::Jacobi;
  std::vector<double> residual_history;  // relative residual per iteration
  double precond_setup_seconds = 0.0;
  double precond_apply_seconds = 0.0;
  // Context-reuse telemetry (always false/1.0 on the from-scratch path).
  bool reused_pattern = false;   // numeric refresh on a cached pattern
  bool warm_started = false;     // PCG started from the previous iterate
  double initial_residual = 1.0; // relative residual before iteration 1
};

/// Solve the static IR drop of the circuit. Throws std::runtime_error when
/// the netlist has no voltage source at all.  With opts.context set, the
/// solve goes through the SolverContext reuse cache (see solver_context.hpp).
Solution solve_ir_drop(const Circuit& circuit, const SolveOptions& opts = {});

namespace detail {
/// Expand a reduced-system CG result into the per-node Solution (shared by
/// the from-scratch path and SolverContext).
Solution finish_solution(const Circuit& circuit, const AssembledSystem& sys,
                         sparse::CgResult cg);
}  // namespace detail

}  // namespace lmmir::pdn
