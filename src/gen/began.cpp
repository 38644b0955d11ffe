#include "gen/began.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "spice/node_name.hpp"

namespace lmmir::gen {

using spice::kDbuPerMicron;
using spice::Netlist;
using spice::NodeId;
using spice::NodeName;

void GeneratorConfig::use_default_stack() {
  layers.clear();
  // Pitch is a property of the technology, not the die: it stays fixed as
  // the die grows (node count then scales with area, as in the contest
  // testcases), and grows with the metal index as real PDN stacks do
  // (upper layers thick, wide, sparse).
  constexpr double base = 2.5;
  layers.push_back({1, Direction::Horizontal, base, base * 0.5, 0.40});
  layers.push_back({2, Direction::Vertical, base, base * 0.5, 0.25});
  layers.push_back({3, Direction::Horizontal, base * 2.0, base, 0.12});
  layers.push_back({4, Direction::Vertical, base * 4.0, base, 0.05});
}

namespace {

std::vector<double> stripe_positions(const LayerSpec& spec, double extent_um) {
  std::vector<double> pos;
  for (double p = spec.offset_um; p < extent_um; p += spec.pitch_um)
    pos.push_back(p);
  if (pos.size() < 2) {
    // Degenerate die: fall back to two stripes at the edges.
    pos = {extent_um * 0.25, extent_um * 0.75};
  }
  return pos;
}

std::int64_t to_dbu(double um) {
  return static_cast<std::int64_t>(std::llround(um * kDbuPerMicron));
}

/// Index of the element of `sorted` closest to v.
std::size_t nearest_index(const std::vector<double>& sorted, double v) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  if (it == sorted.begin()) return 0;
  if (it == sorted.end()) return sorted.size() - 1;
  const auto hi = static_cast<std::size_t>(it - sorted.begin());
  const auto lo = hi - 1;
  return (v - sorted[lo] <= sorted[hi] - v) ? lo : hi;
}

void validate(const GeneratorConfig& cfg) {
  if (cfg.layers.size() < 2)
    throw std::invalid_argument("generate_pdn: need at least 2 layers");
  for (std::size_t i = 0; i < cfg.layers.size(); ++i) {
    if (cfg.layers[i].pitch_um <= 0)
      throw std::invalid_argument("generate_pdn: non-positive pitch");
    if (cfg.layers[i].res_per_um <= 0)
      throw std::invalid_argument("generate_pdn: non-positive wire resistance");
    if (i > 0 && cfg.layers[i].dir == cfg.layers[i - 1].dir)
      throw std::invalid_argument(
          "generate_pdn: adjacent layers must alternate direction");
    if (i > 0 && cfg.layers[i].layer <= cfg.layers[i - 1].layer)
      throw std::invalid_argument("generate_pdn: layers must ascend");
  }
  if (cfg.width_um <= 0 || cfg.height_um <= 0)
    throw std::invalid_argument("generate_pdn: non-positive die size");
  if (cfg.vdd <= 0) throw std::invalid_argument("generate_pdn: vdd <= 0");
  if (cfg.via_resistance <= 0)
    throw std::invalid_argument("generate_pdn: via resistance <= 0");
}

}  // namespace

grid::Grid2D synth_current_map(const GeneratorConfig& cfg, util::Rng& rng) {
  const auto rows = static_cast<std::size_t>(std::ceil(cfg.height_um));
  const auto cols = static_cast<std::size_t>(std::ceil(cfg.width_um));
  grid::Grid2D map(rows, cols, 0.0f);

  // Uniform background.
  const float bg = static_cast<float>(cfg.background_fraction);
  map.fill(bg / static_cast<float>(map.size()));

  // Gaussian hotspots share the remaining current mass.
  const int k = std::max(0, cfg.n_hotspots);
  if (k > 0) {
    const double mass_per = (1.0 - cfg.background_fraction) / k;
    for (int h = 0; h < k; ++h) {
      const double cx = rng.uniform_double(0.1, 0.9) * cfg.width_um;
      const double cy = rng.uniform_double(0.1, 0.9) * cfg.height_um;
      const double sigma =
          rng.uniform_double(cfg.hotspot_sigma_min_um, cfg.hotspot_sigma_max_um);
      // Evaluate the (unnormalized) Gaussian, then normalize to mass_per.
      double total = 0.0;
      std::vector<double> weights(map.size());
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
          const double dx = (static_cast<double>(c) + 0.5) - cx;
          const double dy = (static_cast<double>(r) + 0.5) - cy;
          const double w = std::exp(-0.5 * (dx * dx + dy * dy) / (sigma * sigma));
          weights[r * cols + c] = w;
          total += w;
        }
      if (total > 0)
        for (std::size_t i = 0; i < map.size(); ++i)
          map.data()[i] += static_cast<float>(mass_per * weights[i] / total);
    }
  }

  // Normalize to the configured current budget.
  const float sum = map.sum();
  if (sum > 0) map.scale(static_cast<float>(cfg.total_current) / sum);
  return map;
}

spice::Netlist generate_pdn(const GeneratorConfig& cfg) {
  validate(cfg);
  util::Rng rng(cfg.seed);
  Netlist nl;

  const std::size_t nlayers = cfg.layers.size();

  // Stripe coordinates per layer: y-positions for horizontal stripes,
  // x-positions for vertical ones.
  std::vector<std::vector<double>> stripes(nlayers);
  for (std::size_t i = 0; i < nlayers; ++i) {
    const double extent = cfg.layers[i].dir == Direction::Horizontal
                              ? cfg.height_um
                              : cfg.width_um;
    stripes[i] = stripe_positions(cfg.layers[i], extent);
  }

  // Node bookkeeping: per layer, per stripe, sorted in-stripe coordinates.
  // Key: (stripe index, coordinate along the stripe in DBU).
  struct StripeNodes {
    std::map<std::int64_t, NodeId> by_coord;  // along-stripe coord -> node
  };
  std::vector<std::vector<StripeNodes>> nodes(nlayers);
  for (std::size_t i = 0; i < nlayers; ++i) nodes[i].resize(stripes[i].size());

  auto node_at = [&](std::size_t li, std::size_t stripe_idx,
                     double along_um) -> NodeId {
    const auto& spec = cfg.layers[li];
    const double fixed_um = stripes[li][stripe_idx];
    const std::int64_t along = to_dbu(along_um);
    auto& slot = nodes[li][stripe_idx].by_coord;
    auto it = slot.find(along);
    if (it != slot.end()) return it->second;
    NodeName nm;
    nm.net = 1;
    nm.layer = spec.layer;
    if (spec.dir == Direction::Horizontal) {
      nm.x = along;
      nm.y = to_dbu(fixed_um);
    } else {
      nm.x = to_dbu(fixed_um);
      nm.y = along;
    }
    char spelling[NodeName::kMaxChars];
    const NodeId id = nl.intern_node(nm.format(spelling));
    slot.emplace(along, id);
    return id;
  };

  // 1. Vias: nodes at every crossing of adjacent layers (directions
  //    alternate, so each pair crosses on a full grid).
  std::size_t via_count = 0;
  for (std::size_t li = 0; li + 1 < nlayers; ++li) {
    const auto& lower = cfg.layers[li];
    for (std::size_t si = 0; si < stripes[li].size(); ++si) {
      for (std::size_t sj = 0; sj < stripes[li + 1].size(); ++sj) {
        // Crossing point: lower stripe's fixed coord + upper stripe's fixed
        // coord; "along" on the lower layer equals the upper stripe position.
        const double along_lower = stripes[li + 1][sj];
        const double along_upper = stripes[li][si];
        const NodeId a = node_at(li, si, along_lower);
        const NodeId b = node_at(li + 1, sj, along_upper);
        nl.add_resistor("v" + std::to_string(via_count++), a, b,
                        cfg.via_resistance);
        (void)lower;
      }
    }
  }

  // 2. Wire segments: consecutive nodes along every stripe.
  std::size_t seg_count = 0;
  for (std::size_t li = 0; li < nlayers; ++li) {
    for (std::size_t si = 0; si < stripes[li].size(); ++si) {
      const auto& slot = nodes[li][si].by_coord;
      if (slot.size() < 2) continue;
      auto prev = slot.begin();
      for (auto it = std::next(slot.begin()); it != slot.end(); ++it) {
        const double dist_um =
            static_cast<double>(it->first - prev->first) / kDbuPerMicron;
        const double ohms =
            std::max(1e-3, dist_um * cfg.layers[li].res_per_um);
        nl.add_resistor("w" + std::to_string(seg_count++), prev->second,
                        it->second, ohms);
        prev = it;
      }
    }
  }

  // 3. Current taps on m1: bin each current-map pixel to the nearest m1
  //    node (nearest stripe, then nearest in-stripe node); totals are
  //    conserved exactly.
  const grid::Grid2D imap = synth_current_map(cfg, rng);
  {
    const auto& m1 = cfg.layers[0];
    const auto& m1_stripes = stripes[0];
    // Pre-extract sorted in-stripe coordinates for each m1 stripe.
    std::vector<std::vector<double>> coords(m1_stripes.size());
    std::vector<std::vector<NodeId>> ids(m1_stripes.size());
    for (std::size_t si = 0; si < m1_stripes.size(); ++si) {
      for (const auto& [along, id] : nodes[0][si].by_coord) {
        coords[si].push_back(static_cast<double>(along) / kDbuPerMicron);
        ids[si].push_back(id);
      }
    }
    std::vector<double> tap(nl.node_count(), 0.0);
    for (std::size_t r = 0; r < imap.rows(); ++r) {
      for (std::size_t c = 0; c < imap.cols(); ++c) {
        const float amps = imap.at(r, c);
        if (amps <= 0) continue;
        const double px = static_cast<double>(c) + 0.5;
        const double py = static_cast<double>(r) + 0.5;
        const double stripe_coord = m1.dir == Direction::Horizontal ? py : px;
        const double along_coord = m1.dir == Direction::Horizontal ? px : py;
        const std::size_t si = nearest_index(m1_stripes, stripe_coord);
        if (coords[si].empty()) continue;
        const std::size_t ni = nearest_index(coords[si], along_coord);
        tap[static_cast<std::size_t>(ids[si][ni])] += amps;
      }
    }
    std::size_t i_count = 0;
    for (std::size_t n = 0; n < tap.size(); ++n) {
      if (tap[n] <= 0) continue;
      nl.add_current_source("l" + std::to_string(i_count++),
                            static_cast<NodeId>(n), spice::kGroundNode,
                            tap[n]);
    }
  }

  // 4. Bumps: voltage sources on the top layer at a regular array.
  {
    const std::size_t top = nlayers - 1;
    const auto& top_stripes = stripes[top];
    std::vector<std::vector<double>> coords(top_stripes.size());
    std::vector<std::vector<NodeId>> ids(top_stripes.size());
    for (std::size_t si = 0; si < top_stripes.size(); ++si) {
      for (const auto& [along, id] : nodes[top][si].by_coord) {
        coords[si].push_back(static_cast<double>(along) / kDbuPerMicron);
        ids[si].push_back(id);
      }
    }
    std::vector<char> bumped(nl.node_count(), 0);
    std::size_t v_count = 0;
    const double half = cfg.bump_pitch_um / 2.0;
    for (double by = half; by < cfg.height_um; by += cfg.bump_pitch_um) {
      for (double bx = half; bx < cfg.width_um; bx += cfg.bump_pitch_um) {
        const double stripe_coord =
            cfg.layers[top].dir == Direction::Horizontal ? by : bx;
        const double along_coord =
            cfg.layers[top].dir == Direction::Horizontal ? bx : by;
        const std::size_t si = nearest_index(top_stripes, stripe_coord);
        if (coords[si].empty()) continue;
        const std::size_t ni = nearest_index(coords[si], along_coord);
        const NodeId node = ids[si][ni];
        if (bumped[static_cast<std::size_t>(node)]) continue;
        bumped[static_cast<std::size_t>(node)] = 1;
        nl.add_voltage_source("b" + std::to_string(v_count++), node,
                              spice::kGroundNode, cfg.vdd);
      }
    }
    if (v_count == 0) {
      // Guarantee at least one supply: pin the centre-most top-layer node.
      const std::size_t si = top_stripes.size() / 2;
      if (!coords[si].empty()) {
        const NodeId node = ids[si][coords[si].size() / 2];
        nl.add_voltage_source("b0", node, spice::kGroundNode, cfg.vdd);
      }
    }
  }

  return nl;
}

}  // namespace lmmir::gen
