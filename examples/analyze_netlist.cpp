// analyze_netlist: the "commercial tool" flow of Fig. 1 — parse a SPICE
// PDN netlist, run the golden static IR-drop analysis, and export the
// feature maps, the IR-drop map (CSV + heat-map image) and a violation
// report.
//
// Usage: analyze_netlist [netlist.sp] [out_dir]
// With no arguments a demonstration netlist is generated first.
// LMMIR_PRECOND selects the golden-solver preconditioner
// (none|jacobi|ic0; default jacobi).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "features/contest_io.hpp"
#include "features/feature_context.hpp"
#include "features/maps.hpp"
#include "gen/began.hpp"
#include "pdn/circuit.hpp"
#include "pdn/raster.hpp"
#include "pdn/solver.hpp"
#include "pdn/stats.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "util/image_io.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lmmir;
  const std::string out_dir = argc > 2 ? argv[2] : "analyze_out";
  std::filesystem::create_directories(out_dir);

  spice::Netlist netlist;
  if (argc > 1) {
    spice::ParseStats pstats;
    netlist = spice::parse_netlist_file(argv[1], &pstats);
    std::printf("parsed %s: %zu lines, %zu elements\n", argv[1], pstats.lines,
                pstats.elements);
  } else {
    gen::GeneratorConfig cfg;
    cfg.name = "demo";
    cfg.width_um = 64;
    cfg.height_um = 64;
    cfg.seed = 99;
    cfg.use_default_stack();
    netlist = gen::generate_pdn(cfg);
    spice::write_netlist_file(out_dir + "/netlist.sp", netlist, "demo PDN");
    std::printf("no input given; generated demo netlist -> %s/netlist.sp\n",
                out_dir.c_str());
  }

  const pdn::TestcaseStats stats = pdn::compute_stats(netlist, "input");
  std::printf("nodes %zu | R %zu | I %zu | V %zu | layers %d | shape %s\n",
              stats.nodes, stats.resistors, stats.current_sources,
              stats.voltage_sources, stats.layers,
              stats.shape_string().c_str());

  util::Stopwatch watch;
  const pdn::Circuit circuit(netlist);
  pdn::SolveOptions solve_opts;
  solve_opts.cg.preconditioner =
      sparse::preconditioner_kind_from_env(solve_opts.cg.preconditioner);
  const pdn::Solution sol = pdn::solve_ir_drop(circuit, solve_opts);
  std::printf("solve: %zu unknowns, %zu PCG iterations (%s), residual %.2e, "
              "%.3f s (precond setup %.3f s, apply %.3f s)\n",
              sol.unknowns, sol.cg_iterations,
              sparse::to_string(sol.preconditioner), sol.cg_residual,
              watch.seconds(), sol.precond_setup_seconds,
              sol.precond_apply_seconds);
  std::printf("VDD %.3f V | worst IR drop %.4f V (%.2f%%)\n", sol.vdd,
              sol.worst_drop, 100.0 * sol.worst_drop / sol.vdd);

  // Violation report: nodes above 90% of the worst drop (hotspots).
  const double thresh = 0.9 * sol.worst_drop;
  std::size_t violations = 0;
  for (double d : sol.ir_drop)
    if (d > thresh) ++violations;
  std::printf("hotspot nodes (>90%% of worst drop): %zu\n", violations);

  // Export feature maps + IR map in the contest layout, plus a PPM image.
  // The FeatureContext runs the single-pass extraction (and would reuse
  // topology-invariant channels were this loop re-run on a load sweep).
  const grid::Grid2D ir = pdn::rasterize_ir_drop(netlist, sol);
  util::Stopwatch feat_watch;
  feat::FeatureContext feature_context;
  const feat::FeatureMaps& maps = feature_context.extract(netlist);
  std::printf("features: %d channel(s) in %.3f s (single classify pass)\n",
              feat::kChannelCount, feat_watch.seconds());
  feat::write_contest_case(out_dir, netlist, maps, ir);
  const util::RgbImage img =
      util::colorize(ir.data(), ir.cols(), ir.rows(), ir.min(), ir.max());
  util::write_ppm(out_dir + "/ir_drop.ppm", img);
  std::printf("wrote contest-format case + heat map to %s/\n", out_dir.c_str());
  return 0;
}
