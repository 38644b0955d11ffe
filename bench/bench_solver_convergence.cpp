// Solver convergence: preconditioner trajectory for the golden solver.
//
// Generates a ladder of suite-style PDN circuits, assembles each reduced
// MNA system once, and runs PCG under every preconditioner, reporting
// iterations-to-tolerance and wall time as a JSON perf record.  Also
// verifies the PCG determinism contract: 1-thread and N-thread solves of
// the largest system must be bitwise identical (including the
// level-scheduled IC(0) triangular applies), and measures the
// SolverContext on the two repeated-solve workloads:
//
//   * cold-vs-warm pdn::optimize — the ECO loop re-solved from scratch
//     per round vs. through a shared context (numeric refresh +
//     warm-started PCG).  Context reuse must CUT total PCG iterations.
//   * a load sweep — same PDN, currents rescaled per solve: rhs-only
//     refreshes must keep the IC(0) factor (one setup amortized across
//     the sweep) and still beat the per-solve cold starts.
//
// A grid-scaling section records, on a ladder of multi-layer dies whose
// side doubles per step (unknowns roughly quadruple), the Jacobi and
// IC(0) iteration counts and median wall time (of kGridReps solves) at
// the default pool size.  It is a record, not a gate: which kind wins on
// wall time depends on the system size and the host (docs/SOLVER.md).
//
// Exit status is non-zero when IC(0) fails to reduce iterations vs.
// Jacobi on the largest circuit, when the thread-identity check fails, or
// when context reuse stops cutting iterations — CI runs this as a smoke
// test.
//
// Knobs (environment):
//   LMMIR_BENCH_CASES       number of circuit sizes        (default 3)
//   LMMIR_BENCH_SCALE       linear size multiplier         (default 1.0)
//   LMMIR_BENCH_THREADS     comma list of pool sizes       (default "1,8")
//   LMMIR_BENCH_ROUNDS      ECO / sweep repeat count       (default 6)
//   LMMIR_BENCH_GRID_CASES  grid-scaling ladder steps      (default 3)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gen/began.hpp"
#include "pdn/circuit.hpp"
#include "pdn/optimize.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/cg.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace lmmir;

struct SolveRecord {
  sparse::PreconditionerKind kind;
  std::size_t iterations = 0;
  double residual = 0.0;
  bool converged = false;
  double setup_s = 0.0;
  double apply_s = 0.0;
  double total_s = 0.0;
};

constexpr sparse::PreconditionerKind kKinds[] = {
    sparse::PreconditionerKind::None, sparse::PreconditionerKind::Jacobi,
    sparse::PreconditionerKind::Ic0};

/// Solves per grid-scaling step and kind; the record keeps the median.
constexpr int kGridReps = 3;

}  // namespace

int main() {
  const int cases = static_cast<int>(
      std::max(1L, benchio::env_long("LMMIR_BENCH_CASES", 3)));
  const double scale = benchio::env_double("LMMIR_BENCH_SCALE", 1.0);
  const std::vector<std::size_t> thread_cfgs = benchio::env_thread_list();
  // The default pool size (LMMIR_THREADS, else host cores), read before
  // the ladder pins the pool to one thread: grid scaling runs at it.
  const std::size_t pool_threads = runtime::global_threads();
  // Populate the registry snapshot embedded in the record (recording never
  // feeds back into the solves; bitwise gates below are unaffected).
  obs::set_metrics_enabled(true);

  // Circuit ladder: suite-style dies of growing side, current budget
  // scaled with area like gen::suite so drops stay in a realistic band.
  std::vector<pdn::AssembledSystem> systems;
  std::vector<double> sides;
  runtime::set_global_threads(1);
  for (int i = 0; i < cases; ++i) {
    const double side = std::max(24.0, (32.0 + 28.0 * i) * scale);
    gen::GeneratorConfig cfg;
    cfg.name = "conv" + std::to_string(i);
    cfg.width_um = cfg.height_um = side;
    cfg.seed = 515 + static_cast<std::uint64_t>(i);
    cfg.use_default_stack();
    cfg.bump_pitch_um = std::max(12.0, side / 3.0);
    cfg.total_current = 0.08 * (side * side) / (64.0 * 64.0);
    const spice::Netlist nl = gen::generate_pdn(cfg);
    const pdn::Circuit circuit(nl);
    systems.push_back(pdn::assemble_ir_system(circuit));
    sides.push_back(side);
  }

  // Per-preconditioner solves (single-threaded: iteration counts and
  // per-kind timing are the point; thread scaling is measured separately).
  std::vector<std::vector<SolveRecord>> records(systems.size());
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (const auto kind : kKinds) {
      sparse::CgOptions opts;
      opts.preconditioner = kind;
      util::Stopwatch watch;
      const auto res =
          sparse::conjugate_gradient(systems[s].matrix, systems[s].rhs, opts);
      SolveRecord rec;
      rec.kind = kind;
      rec.iterations = res.iterations;
      rec.residual = res.residual;
      rec.converged = res.converged;
      rec.setup_s = res.precond_setup_seconds;
      rec.apply_s = res.precond_apply_seconds;
      rec.total_s = watch.seconds();
      records[s].push_back(rec);
    }
  }

  // Determinism: solve the largest system at min vs max pool size and
  // compare the iterates bitwise (the blocked-reduction contract).  IC(0)
  // exercises the level-scheduled triangular applies.
  std::size_t t_min = thread_cfgs.front(), t_max = thread_cfgs.front();
  for (std::size_t t : thread_cfgs) {
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  }
  const auto& big = systems.back();
  bool bitwise_identical = true;
  for (const auto kind :
       {sparse::PreconditionerKind::Jacobi, sparse::PreconditionerKind::Ic0}) {
    sparse::CgOptions opts;
    opts.preconditioner = kind;
    runtime::set_global_threads(t_min);
    const auto lo = sparse::conjugate_gradient(big.matrix, big.rhs, opts);
    runtime::set_global_threads(t_max);
    const auto hi = sparse::conjugate_gradient(big.matrix, big.rhs, opts);
    if (lo.x.size() != hi.x.size() || lo.iterations != hi.iterations)
      bitwise_identical = false;
    else
      for (std::size_t i = 0; i < lo.x.size(); ++i)
        if (lo.x[i] != hi.x[i]) bitwise_identical = false;
  }
  runtime::set_global_threads(1);

  const auto& largest = records.back();
  std::size_t it_jacobi = 0, it_ic0 = 0;
  for (const auto& r : largest) {
    if (r.kind == sparse::PreconditionerKind::Jacobi) it_jacobi = r.iterations;
    if (r.kind == sparse::PreconditionerKind::Ic0) it_ic0 = r.iterations;
  }
  const bool ic0_reduces = it_ic0 < it_jacobi;

  // ---- Scenario: cold-vs-warm pdn::optimize (the ECO repeated-solve
  // workload).  Same stressed PDN, unreachable target so every round
  // executes; the context path must cut total PCG iterations.
  const int rounds =
      static_cast<int>(std::max(1L, benchio::env_long("LMMIR_BENCH_ROUNDS", 6)));
  struct EcoRecord {
    sparse::PreconditionerKind kind;
    std::size_t cold_iters = 0, warm_iters = 0;
    std::size_t cold_builds = 0, warm_builds = 0, warm_starts = 0;
    int golden_solves = 0;
    double cold_s = 0.0, warm_s = 0.0;
  };
  gen::GeneratorConfig eco_cfg;
  eco_cfg.name = "eco";
  eco_cfg.width_um = eco_cfg.height_um = std::max(24.0, 48.0 * scale);
  eco_cfg.seed = 909;
  eco_cfg.use_default_stack();
  eco_cfg.total_current =
      2.0 * 0.08 * (eco_cfg.width_um * eco_cfg.height_um) / (64.0 * 64.0);
  const spice::Netlist eco_nl = gen::generate_pdn(eco_cfg);
  std::vector<EcoRecord> eco_records;
  bool warm_cuts_iterations = true;
  for (const auto kind :
       {sparse::PreconditionerKind::Jacobi, sparse::PreconditionerKind::Ic0}) {
    pdn::StrengthenOptions sopts;
    sopts.target_fraction = 1e-7;  // never met: the cap is the exit
    sopts.max_iterations = rounds;
    sopts.solve.cg.preconditioner = kind;
    EcoRecord rec;
    rec.kind = kind;

    sopts.use_solver_context = false;
    util::Stopwatch cold_watch;
    const auto cold = pdn::strengthen_pdn(eco_nl, sopts);
    rec.cold_s = cold_watch.seconds();
    rec.cold_iters = cold.total_cg_iterations;
    rec.cold_builds = cold.precond_builds;
    rec.golden_solves = cold.golden_solves;

    sopts.use_solver_context = true;
    util::Stopwatch warm_watch;
    const auto warm = pdn::strengthen_pdn(eco_nl, sopts);
    rec.warm_s = warm_watch.seconds();
    rec.warm_iters = warm.total_cg_iterations;
    rec.warm_builds = warm.precond_builds;
    rec.warm_starts = warm.warm_starts;
    if (!(rec.warm_iters < rec.cold_iters)) warm_cuts_iterations = false;
    eco_records.push_back(rec);
  }

  // ---- Scenario: load sweep (rhs-only repeated solves).  The matrix
  // never changes, so the context keeps one IC(0) factor for the whole
  // sweep and every solve warm-starts from its neighbor.
  struct SweepRecord {
    std::size_t cold_iters = 0, warm_iters = 0;
    std::size_t warm_builds = 0;
    double cold_s = 0.0, warm_s = 0.0;
  } sweep;
  {
    spice::Netlist nl = gen::generate_pdn(eco_cfg);
    pdn::SolveOptions sopts;
    sopts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
    util::Stopwatch cold_watch;
    {
      spice::Netlist cold_nl = nl;
      for (int r = 0; r < rounds; ++r) {
        const auto& els = cold_nl.elements();
        for (std::size_t i = 0; i < els.size(); ++i)
          if (els[i].type == spice::ElementType::CurrentSource)
            cold_nl.set_element_value(i, els[i].value * (r ? 1.07 : 1.0));
        sweep.cold_iters +=
            pdn::solve_ir_drop(pdn::Circuit(cold_nl), sopts).cg_iterations;
      }
    }
    sweep.cold_s = cold_watch.seconds();
    util::Stopwatch warm_watch;
    {
      pdn::SolverContext ctx(sopts);
      for (int r = 0; r < rounds; ++r) {
        const auto& els = nl.elements();
        for (std::size_t i = 0; i < els.size(); ++i)
          if (els[i].type == spice::ElementType::CurrentSource)
            nl.set_element_value(i, els[i].value * (r ? 1.07 : 1.0));
        ctx.solve(pdn::Circuit(nl));
      }
      sweep.warm_iters = ctx.stats().total_cg_iterations;
      sweep.warm_builds = ctx.stats().precond_builds;
    }
    sweep.warm_s = warm_watch.seconds();
    if (!(sweep.warm_iters < sweep.cold_iters)) warm_cuts_iterations = false;
  }

  // ---- Scenario: grid scaling (the large-mesh regime, scaled to the
  // host).  Die side doubles per step so unknowns roughly quadruple; each
  // kind's wall time is the median of kGridReps solves at the default
  // pool size.  Recorded, not gated.
  const int grid_cases = static_cast<int>(
      std::max(2L, benchio::env_long("LMMIR_BENCH_GRID_CASES", 3)));
  struct GridRecord {
    double side = 0.0;
    std::size_t unknowns = 0, nnz = 0;
    std::size_t it_jacobi = 0, it_ic0 = 0;
    double jacobi_s = 0.0, ic0_s = 0.0;
  };
  std::vector<GridRecord> grid_records;
  runtime::set_global_threads(pool_threads);
  for (int i = 0; i < grid_cases; ++i) {
    const double side = std::max(24.0, 24.0 * (1 << i) * scale);
    gen::GeneratorConfig cfg;
    cfg.name = "grid" + std::to_string(i);
    cfg.width_um = cfg.height_um = side;
    cfg.seed = 717 + static_cast<std::uint64_t>(i);
    cfg.use_default_stack();
    cfg.bump_pitch_um = std::max(12.0, side / 4.0);
    cfg.total_current = 0.08 * (side * side) / (64.0 * 64.0);
    const spice::Netlist nl = gen::generate_pdn(cfg);
    const pdn::AssembledSystem sys = pdn::assemble_ir_system(pdn::Circuit(nl));

    GridRecord g;
    g.side = side;
    g.unknowns = sys.matrix.dim();
    g.nnz = sys.matrix.nnz();
    auto timed = [&](sparse::PreconditionerKind kind, double& median_s) {
      sparse::CgOptions opts;
      opts.preconditioner = kind;
      std::vector<double> secs;
      std::size_t iterations = 0;
      for (int rep = 0; rep < kGridReps; ++rep) {
        util::Stopwatch watch;
        const auto res =
            sparse::conjugate_gradient(sys.matrix, sys.rhs, opts);
        secs.push_back(watch.seconds());
        iterations =
            res.converged ? res.iterations : static_cast<std::size_t>(-1);
      }
      std::sort(secs.begin(), secs.end());
      median_s = secs[secs.size() / 2];
      return iterations;
    };
    g.it_jacobi = timed(sparse::PreconditionerKind::Jacobi, g.jacobi_s);
    g.it_ic0 = timed(sparse::PreconditionerKind::Ic0, g.ic0_s);
    grid_records.push_back(g);
  }
  runtime::set_global_threads(1);

  benchio::JsonRecord rec;
  rec.printf("{\n");
  rec.printf("  \"bench\": \"solver_convergence\",\n");
  rec.printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  rec.printf("  \"tolerance\": %.1e,\n", sparse::CgOptions{}.tolerance);
  rec.printf("  \"cases\": [\n");
  for (std::size_t s = 0; s < systems.size(); ++s) {
    rec.printf("    {\"name\": \"conv%zu\", \"side_um\": %.0f, "
                "\"unknowns\": %zu, \"nnz\": %zu, \"solves\": [\n",
                s, sides[s], systems[s].matrix.dim(), systems[s].matrix.nnz());
    for (std::size_t k = 0; k < records[s].size(); ++k) {
      const auto& r = records[s][k];
      rec.printf("      {\"precond\": \"%s\", \"iterations\": %zu, "
                  "\"residual\": %.3e, \"converged\": %s, \"setup_s\": %.4f, "
                  "\"apply_s\": %.4f, \"total_s\": %.4f}%s\n",
                  sparse::to_string(r.kind), r.iterations, r.residual,
                  r.converged ? "true" : "false", r.setup_s, r.apply_s,
                  r.total_s, k + 1 < records[s].size() ? "," : "");
    }
    rec.printf("    ]}%s\n", s + 1 < systems.size() ? "," : "");
  }
  rec.printf("  ],\n");
  rec.printf("  \"eco_cold_vs_warm\": {\n");
  rec.printf("    \"rounds\": %d, \"solves\": [\n", rounds);
  for (std::size_t k = 0; k < eco_records.size(); ++k) {
    const auto& r = eco_records[k];
    rec.printf(
        "      {\"precond\": \"%s\", \"golden_solves\": %d, "
        "\"cold_iterations\": %zu, "
        "\"warm_iterations\": %zu, \"cold_precond_builds\": %zu, "
        "\"warm_precond_builds\": %zu, \"warm_starts\": %zu, "
        "\"cold_s\": %.4f, \"warm_s\": %.4f}%s\n",
        sparse::to_string(r.kind), r.golden_solves, r.cold_iters,
        r.warm_iters, r.cold_builds, r.warm_builds, r.warm_starts, r.cold_s,
        r.warm_s, k + 1 < eco_records.size() ? "," : "");
  }
  rec.printf("    ]\n");
  rec.printf("  },\n");
  rec.printf("  \"load_sweep_ic0\": {\"rounds\": %d, "
              "\"cold_iterations\": %zu, \"warm_iterations\": %zu, "
              "\"warm_precond_builds\": %zu, \"cold_s\": %.4f, "
              "\"warm_s\": %.4f},\n",
              rounds, sweep.cold_iters, sweep.warm_iters, sweep.warm_builds,
              sweep.cold_s, sweep.warm_s);
  rec.printf("  \"grid_scaling\": {\n");
  rec.printf("    \"threads\": %zu, \"reps\": %d,\n", pool_threads,
              kGridReps);
  rec.printf("    \"cases\": [\n");
  for (std::size_t g = 0; g < grid_records.size(); ++g) {
    const auto& r = grid_records[g];
    rec.printf("      {\"side_um\": %.0f, \"unknowns\": %zu, \"nnz\": %zu, "
                "\"jacobi_iterations\": %zu, \"ic0_iterations\": %zu, "
                "\"jacobi_median_s\": %.4f, \"ic0_median_s\": %.4f}%s\n",
                r.side, r.unknowns, r.nnz, r.it_jacobi, r.it_ic0,
                r.jacobi_s, r.ic0_s, g + 1 < grid_records.size() ? "," : "");
  }
  rec.printf("    ]\n");
  rec.printf("  },\n");
  rec.printf("  \"identity_threads\": [%zu, %zu],\n", t_min, t_max);
  rec.printf("  \"threads_bitwise_identical\": %s,\n",
              bitwise_identical ? "true" : "false");
  rec.printf("  \"largest_jacobi_iterations\": %zu,\n", it_jacobi);
  rec.printf("  \"ic0_reduces_vs_jacobi\": %s,\n",
              ic0_reduces ? "true" : "false");
  rec.printf("  \"context_reuse_cuts_iterations\": %s,\n",
              warm_cuts_iterations ? "true" : "false");
  rec.printf("  \"metrics\": %s\n", benchio::metrics_snapshot().c_str());
  rec.printf("}\n");
  std::fputs(rec.text().c_str(), stdout);
  benchio::append_history("solver_convergence", rec.text());

  return (bitwise_identical && ic0_reduces && warm_cuts_iterations) ? 0 : 1;
}
