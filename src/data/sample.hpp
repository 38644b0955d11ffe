#pragma once
// One training/evaluation sample: the six adjusted+normalized circuit
// channels, the pooled netlist tokens, and the IR-drop target.
//
// Targets are stored as percent-of-VDD drop: case-independent scale,
// invertible back to volts with the recorded vdd, and numerically friendly
// for MSE (raw drops are 1e-3..1e-1 V).
#include <string>

#include "features/spatial.hpp"
#include "gen/began.hpp"
#include "grid/grid2d.hpp"
#include "sparse/preconditioner.hpp"
#include "spice/netlist.hpp"
#include "tensor/tensor.hpp"

namespace lmmir::pdn {
class SolverContext;  // pdn/solver_context.hpp
}
namespace lmmir::feat {
class FeatureContext;  // features/feature_context.hpp
}

namespace lmmir::data {

struct SampleOptions {
  std::size_t input_side = 64;  // paper: 512; reduced default for 1 core
  int pc_grid = 8;              // netlist token grid (G*G tokens)
  /// Preconditioner for the golden IR-drop solve backing the ground truth.
  sparse::PreconditionerKind solver_precond =
      sparse::PreconditionerKind::Jacobi;
  /// Optional shared solver cache for corpus generation: consecutive
  /// samples of the same PDN topology (load sweeps, ECO variants) reuse
  /// the assembled pattern / preconditioner and warm-start PCG; unrelated
  /// topologies fall back to a full rebuild automatically.  Not owned; the
  /// caller keeps it alive across make_sample calls and does not share one
  /// context between concurrent solves.
  pdn::SolverContext* solver_context = nullptr;
  /// Optional shared feature-extraction cache, the raster-side analogue of
  /// solver_context: consecutive same-topology netlists reuse the
  /// topology-invariant channels and results stay bitwise identical to a
  /// cold extraction.  Same ownership/threading contract as
  /// solver_context (not owned; one context per serial sample loop).
  feat::FeatureContext* feature_context = nullptr;
};

/// Stored regression targets are percent-of-vdd x kTargetScale, keeping
/// them O(0.1) so freshly initialized heads start in range; predictions
/// are divided back before metric computation.
inline constexpr float kTargetScale = 0.1f;

struct Sample {
  std::string name;
  tensor::Tensor circuit;       // [feat::kChannelCount, S, S], normalized
  tensor::Tensor tokens;        // [G*G, pc::kTokenFeatureDim]
  tensor::Tensor target;        // [1, S, S], percent-of-vdd drop, adjusted
  grid::Grid2D truth_full;      // percent-of-vdd at original resolution
  feat::AdjustInfo adjust;      // pad/scale record for restoring predictions
  double vdd = 0.0;
  double golden_solve_seconds = 0.0;  // TAT of the golden solver (reference)
  std::size_t node_count = 0;
};

/// The inference-side inputs of a sample: the adjusted+normalized circuit
/// channel stack, the pooled netlist tokens, and the pad/scale record
/// needed to restore predictions — everything a served prediction needs,
/// with NO golden solve (the model replaces it).  This is exactly the
/// input half of make_sample; the serving path (serve::SessionServer)
/// builds requests from it.
struct FeaturizedNetlist {
  tensor::Tensor circuit;   // [feat::kChannelCount, S, S], normalized
  tensor::Tensor tokens;    // [G*G, pc::kTokenFeatureDim]
  feat::AdjustInfo adjust;  // pad/scale record for restoring predictions
};

/// Featurize a netlist for inference.  Honors opts.feature_context the
/// same way make_sample does (warm channel reuse for same-topology
/// netlists; results bitwise identical to a cold extraction).  Throws
/// like compute_feature_maps.
FeaturizedNetlist featurize_netlist(const spice::Netlist& netlist,
                                    const SampleOptions& opts);

/// Build a sample from an already-parsed netlist (solves the golden IR
/// drop as ground truth).
Sample make_sample(const spice::Netlist& netlist, const std::string& name,
                   const SampleOptions& opts);

/// Generate the netlist from a config, then build the sample.
Sample make_sample(const gen::GeneratorConfig& config,
                   const SampleOptions& opts);

/// Build a sample from a contest-format case directory (see
/// feat::read_contest_case).  The provided current / effective-distance /
/// PDN-density CSVs are authoritative for channels 0-2; the three extra
/// channels and the point cloud come from the netlist.  When the
/// directory carries a ground-truth map it is used (volts); otherwise the
/// golden solver produces it.
Sample make_sample_from_contest_dir(const std::string& dir,
                                    const SampleOptions& opts);

/// Convert a percent-of-vdd MAE to the paper's 1e-4 V unit.
double percent_mae_to_1e4_volts(double mae_percent, double vdd);

}  // namespace lmmir::data
