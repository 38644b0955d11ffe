// generate_benchmarks: BeGAN-style suite generation.  Writes N synthetic
// PDN benchmark directories (SPICE netlist + contest-format CSV features +
// golden IR-drop ground truth), ready to train on or to feed back through
// analyze_netlist / the data pipeline.
//
// The golden solves fan out over the runtime thread pool, one
// pdn::SolverContext per worker stripe (pdn::solve_ir_drop_batch), so a
// multi-core host solves the corpus in parallel while repeated topologies
// inside a stripe still hit the refresh + warm-start fast path.  Feature
// extraction is striped the same way (feat::compute_feature_maps_batch,
// one feat::FeatureContext per stripe), so same-topology neighbors reuse
// their topology-invariant channels too.  Both stripe partitions are
// thread-count independent, so the written golden maps and feature CSVs
// are bitwise identical for any LMMIR_THREADS.
//
// Usage: generate_benchmarks [count] [out_dir] [seed] [--grid-scale[=N]]
//
// --grid-scale replaces the BeGAN-style random corpus with a ladder of N
// (default 3) multi-layer large-grid cases whose die side doubles per
// step — unknown counts roughly quadruple, the large-grid solver regime.
// `count` is ignored in this mode; `seed` still perturbs the current maps.
//
// LMMIR_PRECOND selects the golden-solver preconditioner
// (none|jacobi|ic0; default jacobi); see docs/SOLVER.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "features/contest_io.hpp"
#include "features/feature_context.hpp"
#include "features/maps.hpp"
#include "gen/suite.hpp"
#include "pdn/circuit.hpp"
#include "pdn/raster.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "pdn/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace {

/// Ladder of multi-layer large-grid cases: side doubles per step, so the
/// reduced-MNA unknown count roughly quadruples — the million-node solver
/// regime scaled down to whatever `steps` the host can afford.
std::vector<lmmir::gen::GeneratorConfig> grid_scale_suite(int steps,
                                                          std::uint64_t seed) {
  using namespace lmmir;
  std::vector<gen::GeneratorConfig> configs;
  for (int i = 0; i < steps; ++i) {
    const double side = 48.0 * static_cast<double>(1 << i);
    gen::GeneratorConfig cfg;
    cfg.name = "grid" + std::to_string(i);
    cfg.width_um = cfg.height_um = side;
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    cfg.use_default_stack();
    cfg.bump_pitch_um = std::max(12.0, side / 4.0);
    cfg.n_hotspots = 3 + i;
    cfg.total_current = 0.08 * (side * side) / (64.0 * 64.0);
    configs.push_back(cfg);
  }
  return configs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lmmir;
  int grid_scale_steps = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--grid-scale", 12) == 0) {
      grid_scale_steps = argv[i][12] == '='
          ? std::max(1, std::atoi(argv[i] + 13)) : 3;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int count = positional.size() > 0 ? std::atoi(positional[0]) : 5;
  const std::string out_dir =
      positional.size() > 1 ? positional[1] : "benchmarks";
  const std::uint64_t seed = positional.size() > 2
      ? static_cast<std::uint64_t>(std::atoll(positional[2])) : 2024;

  gen::SuiteOptions suite;  // default 1/8 contest scale
  const auto configs = grid_scale_steps > 0
      ? grid_scale_suite(grid_scale_steps, seed)
      : gen::fake_training_suite(count, seed, suite);

  pdn::SolveOptions solve_opts;
  solve_opts.cg.preconditioner =
      sparse::preconditioner_kind_from_env(solve_opts.cg.preconditioner);
  pdn::SolverContextStats context_stats;
  feat::FeatureContextStats feature_stats;

  // Work in groups of kGroup cases: generate the group's netlists
  // (deterministic per-config RNG, so grouping changes nothing), solve
  // them across the pool with one SolverContext per stripe, then
  // featurize + write before the next group — peak memory is one
  // group's netlists/circuits/solutions, not the whole corpus.  The
  // group/stripe partition depends only on the case count, so the
  // written golden maps are bitwise identical for any thread count.
  constexpr std::size_t kGroup = 64;
  constexpr std::size_t kStripes = 8;
  std::size_t contexts_used = 0;
  for (std::size_t begin = 0; begin < configs.size(); begin += kGroup) {
    const std::size_t end = std::min(configs.size(), begin + kGroup);
    contexts_used += std::min(kStripes, end - begin);

    std::vector<spice::Netlist> netlists;
    std::vector<std::unique_ptr<pdn::Circuit>> circuits;
    std::vector<const pdn::Circuit*> circuit_ptrs;
    netlists.reserve(end - begin);
    circuits.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      netlists.push_back(gen::generate_pdn(configs[i]));
      circuits.push_back(std::make_unique<pdn::Circuit>(netlists.back()));
      circuit_ptrs.push_back(circuits.back().get());
    }
    const std::vector<pdn::Solution> solutions = pdn::solve_ir_drop_batch(
        circuit_ptrs, solve_opts, kStripes, &context_stats);

    // Featurize over the pool with the matching stripe partition (one
    // FeatureContext per stripe, paired with the per-stripe
    // SolverContexts above), then write serially (disk-bound; keeps the
    // printed order).
    std::vector<const spice::Netlist*> netlist_ptrs;
    netlist_ptrs.reserve(end - begin);
    for (const auto& nl : netlists) netlist_ptrs.push_back(&nl);
    const std::vector<feat::FeatureMaps> all_maps =
        feat::compute_feature_maps_batch(netlist_ptrs, kStripes,
                                         &feature_stats);
    for (std::size_t i = begin; i < end; ++i) {
      const auto& cfg = configs[i];
      const spice::Netlist& nl = netlists[i - begin];
      const pdn::Solution& sol = solutions[i - begin];
      grid::Grid2D ir = pdn::rasterize_ir_drop(nl, sol);
      const std::string dir = out_dir + "/" + cfg.name;
      feat::write_contest_case(dir, nl, all_maps[i - begin], ir);

      const pdn::TestcaseStats st = pdn::compute_stats(nl, cfg.name);
      std::printf("%-10s %6zu nodes  %-9s  worst drop %.2f%%  -> %s\n",
                  st.name.c_str(), st.nodes, st.shape_string().c_str(),
                  100.0 * sol.worst_drop / sol.vdd, dir.c_str());
    }
  }
  std::printf("wrote %zu benchmark case(s) under %s/\n", configs.size(),
              out_dir.c_str());
  std::printf("solver contexts (%zu striped context(s) over %zu thread(s)): "
              "%zu solve(s) = %zu rebuild(s) + %zu refresh(es), %zu "
              "preconditioner build(s), %zu warm start(s)\n",
              contexts_used,
              runtime::global_threads(), context_stats.solves,
              context_stats.rebuilds, context_stats.refreshes,
              context_stats.precond_builds, context_stats.warm_starts);
  std::printf("feature contexts: %zu extraction(s) = %zu channel(s) computed "
              "+ %zu reused (%zu revision hit(s))\n",
              feature_stats.extractions, feature_stats.channels_computed,
              feature_stats.channels_reused, feature_stats.revision_hits);
  return 0;
}
