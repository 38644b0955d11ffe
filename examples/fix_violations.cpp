// fix_violations: the iterative IR-drop ECO loop from the paper's
// introduction — analyze, find violating hotspots, upsize the PDN straps
// around them, re-analyze — driven by the golden solver.  This is the
// expensive loop that fast ML prediction (LMM-IR) is meant to shortcut:
// the printed solve times are exactly the cost a predictor amortizes.
//
// The loop runs twice, cold (every round re-assembles and re-solves from
// scratch) and warm (a shared pdn::SolverContext refreshes the cached
// system in place and warm-starts PCG from the previous round's iterate),
// so the context's saving is visible directly.
//
// Usage: fix_violations [netlist.sp] [target_drop_fraction]
// LMMIR_PRECOND selects the golden-solver preconditioner
// (none|jacobi|ic0; default jacobi).
#include <cstdio>
#include <cstdlib>

#include "gen/began.hpp"
#include "pdn/circuit.hpp"
#include "pdn/optimize.hpp"
#include "pdn/solver.hpp"
#include "sparse/preconditioner.hpp"
#include "spice/parser.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lmmir;

  spice::Netlist netlist;
  if (argc > 1) {
    netlist = spice::parse_netlist_file(argv[1]);
  } else {
    gen::GeneratorConfig cfg;
    cfg.name = "eco_demo";
    cfg.width_um = 56;
    cfg.height_um = 56;
    cfg.seed = 4242;
    cfg.use_default_stack();
    cfg.total_current *= 2.0;  // deliberately stressed PDN
    netlist = gen::generate_pdn(cfg);
    std::printf("no input given; generated a stressed demo PDN\n");
  }

  pdn::StrengthenOptions opts;
  if (argc > 2) opts.target_fraction = std::atof(argv[2]);
  opts.solve.cg.preconditioner = sparse::preconditioner_kind_from_env(
      opts.solve.cg.preconditioner);

  const auto before = pdn::solve_ir_drop(pdn::Circuit(netlist));
  std::printf("before: worst drop %.4f V (%.2f%% of VDD %.2f V)\n",
              before.worst_drop, 100.0 * before.worst_drop / before.vdd,
              before.vdd);
  std::printf("target: %.2f%% of VDD, preconditioner %s\n\n",
              100.0 * opts.target_fraction,
              sparse::to_string(opts.solve.cg.preconditioner));

  opts.use_solver_context = false;
  util::Stopwatch cold_watch;
  const auto cold = pdn::strengthen_pdn(netlist, opts);
  const double cold_s = cold_watch.seconds();

  opts.use_solver_context = true;
  util::Stopwatch warm_watch;
  const auto result = pdn::strengthen_pdn(netlist, opts);
  const double warm_s = warm_watch.seconds();

  std::printf("after %d ECO round(s): worst drop %.4f V (%.2f%%), "
              "%zu segment(s) upsized, target %s\n",
              result.iterations, result.final_worst_drop,
              100.0 * result.final_worst_drop / before.vdd,
              result.resistors_upsized,
              result.met_target ? "MET" : "NOT met");
  std::printf("cold loop: %d golden solve(s), %zu PCG iteration(s), "
              "%zu preconditioner build(s), %.3f s\n",
              cold.golden_solves, cold.total_cg_iterations,
              cold.precond_builds, cold_s);
  std::printf("warm loop: %d golden solve(s), %zu PCG iteration(s) "
              "(%zu warm-started), %.3f s via SolverContext\n",
              result.golden_solves, result.total_cg_iterations,
              result.warm_starts, warm_s);
  std::printf("this analysis loop is the cost a fast ML predictor "
              "(LMM-IR) amortizes.\n");
  return 0;
}
