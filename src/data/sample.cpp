#include "data/sample.hpp"

#include <algorithm>
#include <stdexcept>

#include "features/contest_io.hpp"
#include "features/feature_context.hpp"
#include "features/maps.hpp"
#include "pdn/circuit.hpp"
#include "pdn/raster.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "pointcloud/cloud.hpp"
#include "pointcloud/pool.hpp"
#include "util/stopwatch.hpp"

namespace lmmir::data {

double percent_mae_to_1e4_volts(double mae_percent, double vdd) {
  // percent -> volts: p/100 * vdd; volts -> 1e-4 V: x 1e4.
  return mae_percent / 100.0 * vdd * 1e4;
}

FeaturizedNetlist featurize_netlist(const spice::Netlist& netlist,
                                    const SampleOptions& opts) {
  FeaturizedNetlist f;

  // Circuit modality: the canonical channel stack, adjusted to the model
  // side and normalized per channel (paper Sec. III-A).  A caller-shared
  // FeatureContext reuses topology-invariant channels across consecutive
  // same-topology netlists; the local fallback still gets the single-pass
  // + parallel extraction (and is bitwise identical — cold == warm).
  feat::FeatureContext local_feature_context;
  feat::FeatureContext& feature_context = opts.feature_context
                                              ? *opts.feature_context
                                              : local_feature_context;
  const feat::FeatureMaps& maps = feature_context.extract(netlist);
  std::vector<float> circuit_data;
  circuit_data.reserve(feat::kChannelCount * opts.input_side * opts.input_side);
  for (int c = 0; c < feat::kChannelCount; ++c) {
    feat::AdjustInfo info;
    const grid::Grid2D adj =
        feat::adjust_to_side(maps.channel(c), opts.input_side, info);
    const grid::Grid2D normed = feat::normalize_channel_fixed(adj, c);
    circuit_data.insert(circuit_data.end(), normed.data().begin(),
                        normed.data().end());
    if (c == 0) f.adjust = info;
  }
  const int side = static_cast<int>(opts.input_side);
  f.circuit = tensor::Tensor::from_data(
      {feat::kChannelCount, side, side}, std::move(circuit_data));

  // Netlist modality: point cloud -> fixed token grid.
  const pc::Cloud cloud = pc::cloud_from_netlist(netlist);
  const pc::TokenGrid grid_tokens = pc::grid_pool(cloud, opts.pc_grid);
  f.tokens = tensor::Tensor::from_data(
      {static_cast<int>(grid_tokens.token_count()), pc::kTokenFeatureDim},
      grid_tokens.features);
  return f;
}

Sample make_sample(const spice::Netlist& netlist, const std::string& name,
                   const SampleOptions& opts) {
  Sample s;
  s.name = name;
  s.node_count = netlist.node_count();

  // Golden solve -> ground truth map in percent of vdd.
  util::Stopwatch solve_watch;
  const pdn::Circuit circuit(netlist);
  pdn::SolveOptions solve_opts;
  solve_opts.cg.preconditioner = opts.solver_precond;
  solve_opts.context = opts.solver_context;
  const pdn::Solution sol = pdn::solve_ir_drop(circuit, solve_opts);
  grid::Grid2D truth = pdn::rasterize_ir_drop(netlist, sol);
  s.golden_solve_seconds = solve_watch.seconds();
  s.vdd = sol.vdd;
  if (s.vdd <= 0.0)
    throw std::runtime_error("make_sample: netlist has no supply voltage");
  truth.scale(static_cast<float>(100.0 / s.vdd));  // volts -> percent
  s.truth_full = truth;

  // Inference-side inputs (channel stack + tokens), shared verbatim with
  // the serving path so a served request sees the exact tensors a sample
  // would carry.
  FeaturizedNetlist f = featurize_netlist(netlist, opts);
  s.circuit = std::move(f.circuit);
  s.tokens = std::move(f.tokens);
  s.adjust = f.adjust;

  // Target, same spatial adjustment, in scaled-percent units.
  const int side = static_cast<int>(opts.input_side);
  feat::AdjustInfo target_info;
  grid::Grid2D target_adj =
      feat::adjust_to_side(truth, opts.input_side, target_info);
  target_adj.scale(kTargetScale);
  s.target = tensor::Tensor::from_data({1, side, side}, target_adj.data());
  return s;
}

Sample make_sample(const gen::GeneratorConfig& config,
                   const SampleOptions& opts) {
  const spice::Netlist netlist = gen::generate_pdn(config);
  return make_sample(netlist, config.name, opts);
}

Sample make_sample_from_contest_dir(const std::string& dir,
                                    const SampleOptions& opts) {
  const feat::ContestCase cc = feat::read_contest_case(dir);
  Sample s = make_sample(cc.netlist, dir, opts);
  if (cc.ir_drop.empty()) return s;  // golden-solved truth already in place

  // Override the ground truth with the provided map (volts -> percent).
  grid::Grid2D truth = cc.ir_drop;
  truth.scale(static_cast<float>(100.0 / s.vdd));
  s.truth_full = truth;
  feat::AdjustInfo info;
  grid::Grid2D adj = feat::adjust_to_side(truth, opts.input_side, info);
  adj.scale(kTargetScale);
  s.target = tensor::Tensor::from_data(
      {1, static_cast<int>(opts.input_side), static_cast<int>(opts.input_side)},
      adj.data());

  // Override channels 0-2 with the provided (authoritative) maps.
  const grid::Grid2D* provided[3] = {&cc.current, &cc.effective_distance,
                                     &cc.pdn_density};
  const std::size_t plane = opts.input_side * opts.input_side;
  for (int c = 0; c < 3; ++c) {
    feat::AdjustInfo ci;
    const grid::Grid2D a = feat::adjust_to_side(*provided[c], opts.input_side, ci);
    const grid::Grid2D n = feat::normalize_channel_fixed(a, c);
    std::copy(n.data().begin(), n.data().end(),
              s.circuit.data().begin() +
                  static_cast<std::ptrdiff_t>(static_cast<std::size_t>(c) * plane));
  }
  return s;
}

}  // namespace lmmir::data
