#pragma once
// Workload entry points and the per-layer attribution helpers they share.
//
// Every workload reports every metric: the end-to-end set from its
// untraced timed phase, and with --trace 1 the per-layer set.  Per-layer
// numbers come from three places:
//   * the workload's own timed phase, read from public return values
//     (SessionResult / ServerStats, fit history);
//   * a traced replay of the workload with tracing and obs metrics on
//     (trace overhead, pool occupancy, loader counters);
//   * traced layer probes: benchmark-side obs::Spans around calls into
//     each layer's public functions on the workload's own netlist.  Their
//     names start with "bench." so the trace summary can tell them from
//     the program's own spans.
// Paths a workload does not run itself (the golden solver's ECO loop on
// both, serving on train_stream, training on predict_cold) are probed on
// that workload's netlist so every per-layer metric is defined on every
// workload; they should not move with that workload's end-to-end metrics.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/loader.hpp"
#include "data/sample.hpp"
#include "models/common.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"

namespace perfbench {

void run_predict(const Args& args, Report& report);
void run_train(const Args& args, Report& report);

/// The shipped model every workload serves or trains (untrained LMM-IR).
std::shared_ptr<lmmir::models::IrModel> make_model();

/// Featurization options of the shipped pipeline defaults.
lmmir::data::SampleOptions shipped_sample_options();

/// Cold uncached reference map: featurize with a fresh context, then
/// IrModel::predict at batch 1.
std::vector<float> cold_prediction(lmmir::models::IrModel& model,
                                   const lmmir::spice::Netlist& nl,
                                   const lmmir::data::SampleOptions& opts);

/// serve.* and features.channels_reused_ratio from served results.
void report_serve_layers(Report& report,
                         const std::vector<lmmir::serve::SessionResult>& results,
                         const lmmir::serve::SessionCacheStats& cache,
                         const lmmir::serve::ServerStats& server);

/// For workloads that do not serve: a short session through a
/// SessionServer on `text` (full netlist, load-sweep deltas, a replay),
/// reported with report_serve_layers.
void probe_serve_layers(const std::string& text, Report& report);

/// The golden solver's ECO path on `text`: a cold solve and one load-sweep
/// re-solve through the same SolverContext (pdn.solve_*, sparse.eco_*,
/// warm_iteration_ratio, precond_apply_share), with the solver output
/// checks: recomputed residuals of the re-solve and of a cold solve of
/// the same revision within tolerance, and the two agreeing.
void probe_eco_layers(const std::string& text, Report& report);

/// BatchProvider decorator timing next() (the loader wait seen by fit).
class TimedProvider final : public lmmir::data::BatchProvider {
 public:
  explicit TimedProvider(lmmir::data::BatchProvider& inner) : inner_(inner) {}
  std::size_t epoch_size() const override { return inner_.epoch_size(); }
  void start_epoch(lmmir::util::Rng& rng) override { inner_.start_epoch(rng); }
  bool next(lmmir::data::Batch& out) override;

  std::vector<double> wait_ms;  // one entry per delivered batch
  /// Time between consecutive deliveries: one optimizer step plus the
  /// loader wait, as seen from the data plane.
  std::vector<double> step_ms;

 private:
  lmmir::data::BatchProvider& inner_;
  Clock::time_point last_return_{};
  bool have_last_ = false;
};

/// data.loader_wait_ms, data.prefetch_hit_ratio, train.step_ms and
/// train.samples_per_s of one fit through `timed`, run with obs metrics
/// reset and enabled (the prefetch counters).
void report_loader_layers(Report& report, const TimedProvider& timed,
                          double fit_seconds, std::size_t samples);

/// For workloads that do not train: a one-sample shard corpus built from
/// `text` under the run's output directory, streamed through a fit of one
/// epoch per stage.
void probe_train_layers(const std::string& text, const Args& args,
                        Report& report);

/// The traced span probes on one netlist: spice, features, pointcloud,
/// data, models, tensor, pdn, sparse and train layers.  Writes the Chrome
/// trace to <out>/trace-<workload>-<seed>.json and reports each layer's
/// median span time.
void probe_layers(const std::string& text, lmmir::models::IrModel& model,
                  const Args& args, Report& report);

}  // namespace perfbench
