#pragma once
// Reusable solver state for repeated IR-drop solves.
//
// Every workload that matters solves near-identical PDN systems over and
// over: the ECO loop in pdn::strengthen_pdn perturbs resistor values
// between rounds, corpus generation sweeps current loads over a fixed
// grid, and benchmark suites re-solve the same topologies.  A cold
// solve_ir_drop pays full price each time — node classification, COO
// stamping, CSR construction, preconditioner setup, and a zero-start PCG.
//
// SolverContext caches everything that survives a value-only change:
//
//   * the reduced-system sparsity pattern and unknown mapping (rebuilt
//     only when the element topology changes),
//   * a numeric-refresh "stamp plan" mapping each netlist element to the
//     CSR value slots / rhs entries it writes, so a value change is an
//     O(nnz) in-place update instead of a re-assembly — and a refresh
//     that only moved current/voltage sources skips the matrix refill
//     entirely (rhs-only update),
//   * the built preconditioner, reused for every solve whose MATRIX
//     values are unchanged (load sweeps, identical re-solves) and rebuilt
//     when conductances moved: a stale IC(0) factor stays SPD but was
//     measured to cost more extra PCG iterations than its setup saves on
//     the ECO workload, so staleness is never carried,
//   * the previous iterate, used to warm-start PCG on the next solve.
//
// Determinism: the refresh path re-stamps values in fixed element order
// and the PCG kernels keep their fixed-block contract, so repeated solves
// are bitwise reproducible run-to-run for any thread count.  Refresh and
// from-scratch assembly may differ in floating-point summation order, so
// their SOLUTIONS agree to solver tolerance, not bitwise.
//
// A context is single-threaded state (like the preconditioners it owns):
// use one instance per concurrently-running solve loop.
#include <cstddef>
#include <memory>
#include <vector>

#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "sparse/preconditioner.hpp"
#include "spice/netlist.hpp"

namespace lmmir::pdn {

/// Lifetime counters of a SolverContext (telemetry for benches and logs).
struct SolverContextStats {
  std::size_t solves = 0;
  std::size_t rebuilds = 0;      // full assemblies (first solve + topology changes)
  std::size_t refreshes = 0;     // numeric refreshes on the cached pattern
  std::size_t matrix_refreshes = 0;  // refreshes that had to refill values
                                     // (the rest were rhs-only updates)
  std::size_t precond_builds = 0;
  std::size_t warm_starts = 0;
  std::size_t total_cg_iterations = 0;
  double assemble_seconds = 0.0;       // full assemblies + plan builds
  double refresh_seconds = 0.0;        // in-place value updates
  double precond_setup_seconds = 0.0;

  /// Field-wise sum (aggregation across per-stripe contexts).
  SolverContextStats& operator+=(const SolverContextStats& o) {
    solves += o.solves;
    rebuilds += o.rebuilds;
    refreshes += o.refreshes;
    matrix_refreshes += o.matrix_refreshes;
    precond_builds += o.precond_builds;
    warm_starts += o.warm_starts;
    total_cg_iterations += o.total_cg_iterations;
    assemble_seconds += o.assemble_seconds;
    refresh_seconds += o.refresh_seconds;
    precond_setup_seconds += o.precond_setup_seconds;
    return *this;
  }
};

class SolverContext {
 public:
  SolverContext() = default;
  /// Fix the solve configuration for the no-options solve() overload.
  explicit SolverContext(SolveOptions opts) : opts_(std::move(opts)) {}

  SolverContext(const SolverContext&) = delete;
  SolverContext& operator=(const SolverContext&) = delete;

  /// Solve the circuit, reusing the cached pattern / preconditioner /
  /// iterate when the circuit is topologically identical to the previous
  /// one (same nodes, same elements up to values).  Falls back to a full
  /// rebuild otherwise.  Throws like solve_ir_drop.
  Solution solve(const Circuit& circuit) { return solve(circuit, opts_); }
  /// Same, with explicit options (opts.context is ignored — this IS the
  /// context).  Changing the preconditioner kind between calls triggers a
  /// preconditioner rebuild on the cached pattern.
  Solution solve(const Circuit& circuit, const SolveOptions& opts);

  const SolverContextStats& stats() const { return stats_; }
  const SolveOptions& options() const { return opts_; }

  /// Drop every cache (pattern, plan, preconditioner, iterate).  The next
  /// solve is a full rebuild; stats are preserved.
  void invalidate();

 private:
  bool topology_matches(const Circuit& circuit) const;
  void rebuild(const Circuit& circuit);
  void refresh(const Circuit& circuit);
  void build_stamp_plan(const Circuit& circuit);

  SolveOptions opts_;
  SolverContextStats stats_;

  // Cached reduced system + the topology fingerprint it was built for.
  AssembledSystem sys_;
  bool cached_ = false;
  std::size_t node_count_ = 0;
  struct ElementTopo {
    spice::ElementType type;
    spice::NodeId node1;
    spice::NodeId node2;
  };
  std::vector<ElementTopo> topo_;
  std::vector<double> element_values_;  // values at the last (re)stamp:
                                        // detects rhs-only refreshes
  std::size_t matrix_version_ = 0;      // bumped whenever values_mut changes
  std::size_t precond_version_ = 0;     // matrix version precond_ was built for

  // Numeric-refresh plan: value slots / rhs entries per netlist element.
  struct ConductanceStamp {            // vals[slot] += sign / R
    std::size_t slot;
    std::size_t element;
    double sign;                       // +1 diagonal, -1 off-diagonal
  };
  struct PinnedRhsStamp {              // rhs[row] += V(pinned) / R
    std::size_t row;
    std::size_t element;
    spice::NodeId pinned_node;
  };
  struct CurrentRhsStamp {             // rhs[row] += sign * I
    std::size_t row;
    std::size_t element;
    double sign;
  };
  std::vector<ConductanceStamp> g_stamps_;
  std::vector<PinnedRhsStamp> pin_stamps_;
  std::vector<CurrentRhsStamp> i_stamps_;

  std::unique_ptr<sparse::Preconditioner> precond_;
  std::vector<double> last_x_;  // previous iterate, reduced-system order
};

/// Golden-solve a batch of independent circuits across the runtime pool,
/// one SolverContext per worker stripe (the corpus-generation workload:
/// many cases, repeated topologies benefiting from refresh + warm
/// starts).
///
/// The batch is split into at most `stripes` contiguous index blocks;
/// each block processes its cases in index order through a private
/// SolverContext, and blocks fan out over runtime::global_pool().
/// Because the stripe partition depends only on the case count — never
/// on the thread count — every context's reuse chain (pattern refresh,
/// preconditioner reuse, PCG warm start) is identical no matter how many
/// threads execute it: results are bitwise reproducible for any
/// LMMIR_THREADS, including fully serial.
///
/// `opts.context` is ignored (each stripe owns its context).  When
/// `aggregate` is non-null the per-stripe context stats are summed into
/// it.  Throws like solve_ir_drop (the first stripe failure wins).
std::vector<Solution> solve_ir_drop_batch(
    const std::vector<const Circuit*>& circuits, const SolveOptions& opts,
    std::size_t stripes = 8, SolverContextStats* aggregate = nullptr);

}  // namespace lmmir::pdn
