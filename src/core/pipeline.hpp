#pragma once
// High-level one-call API tying the whole system together.  Examples and
// benchmark binaries go through this facade; downstream users can too:
//
//   lmmir::core::Pipeline pipe;                  // defaults scale to 1 core
//   auto model  = lmmir::models::make_model("LMM-IR");
//   auto data   = pipe.build_training_dataset();
//   lmmir::train::fit(*model, data, pipe.train_config());
//   for (auto& row : pipe.evaluate_on_hidden_cases(*model)) ...
//
// Environment overrides (read once at construction):
//   LMMIR_INPUT_SIDE, LMMIR_PC_GRID, LMMIR_SCALE, LMMIR_FAKE_CASES,
//   LMMIR_REAL_CASES, LMMIR_EPOCHS, LMMIR_PRETRAIN_EPOCHS, LMMIR_SEED,
//   LMMIR_PRECOND (golden-solver preconditioner: none|jacobi|ic0; see
//   docs/SOLVER.md),
//   LMMIR_SOLVER_REUSE (0 disables the shared SolverContext during
//   dataset / testset golden solves),
//   LMMIR_FEATURE_REUSE (0 disables the shared feat::FeatureContext during
//   dataset / testset feature extraction; see docs/FEATURES.md),
//   LMMIR_TENSOR_ARENA (0 disables arena-backed tensor recycling on the
//   inference path; see docs/TENSOR.md),
//   LMMIR_INFER_PLAN (1 enables ahead-of-time inference plans — record
//   once per input shape, replay with fused/SIMD kernels through
//   preplanned storage; see docs/PLAN.md),
//   LMMIR_SESSION_CACHE (max cached sessions in make_session_server),
//   LMMIR_SESSION_CACHE_MB (session-cache memory budget, MiB; see
//   docs/SERVING.md),
//   LMMIR_CORPUS_DIR (shard-corpus directory for out-of-core training;
//   see docs/DATA.md),
//   LMMIR_PREFETCH (0 disables the streaming loader's async prefetch;
//   results are bitwise identical either way).
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "models/common.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "train/trainer.hpp"

namespace lmmir::core {

struct PipelineOptions {
  data::SampleOptions sample;      // input side + token grid
  double suite_scale = 0.125;      // Table-II linear scale
  int fake_cases = 12;
  int real_cases = 4;
  int fake_oversample = 2;
  int real_oversample = 4;
  train::TrainConfig train;
  std::uint64_t seed = 7;
  /// Share one pdn::SolverContext across the golden solves of a dataset /
  /// testset build (pattern + preconditioner reuse and warm starts for
  /// consecutive same-topology cases; distinct topologies rebuild
  /// automatically).  Env: LMMIR_SOLVER_REUSE=0 to disable.
  bool solver_context_reuse = true;
  /// Share one feat::FeatureContext across the feature extractions of a
  /// dataset / testset build (topology-invariant channels reused for
  /// consecutive same-topology cases; bitwise identical either way).
  /// Env: LMMIR_FEATURE_REUSE=0 to disable.
  bool feature_context_reuse = true;
  /// Recycle inference tensors through per-worker arenas in the servers
  /// this pipeline creates (zero steady-state allocations on the forward
  /// path; bitwise-identical results).  Env: LMMIR_TENSOR_ARENA=0 to
  /// disable.  make_server() ANDs this with ServeOptions::
  /// use_tensor_arena, so either knob can switch arenas off.
  bool tensor_arena = true;
  /// Replay ahead-of-time inference plans in the servers this pipeline
  /// creates (record one eager pass per batch shape, then replay it with
  /// fused/SIMD kernels through preplanned flat-arena storage; bitwise
  /// identical to eager — see docs/PLAN.md).  Opt-in, so the default is
  /// off; env: LMMIR_INFER_PLAN=1 to enable.  make_server() ORs this
  /// with ServeOptions::use_inference_plan, so either knob can switch
  /// plans on.
  bool inference_plan = false;
  /// Session-cache bounds for make_session_server (raw-netlist serving):
  /// max concurrently cached tenant sessions and the memory budget over
  /// their estimated resident bytes.  Env: LMMIR_SESSION_CACHE,
  /// LMMIR_SESSION_CACHE_MB (0 = unbounded; see docs/SERVING.md).
  std::size_t session_cache_sessions = 64;
  std::size_t session_cache_bytes = 256ull << 20;
  /// Shard-corpus directory for out-of-core training (docs/DATA.md).
  /// Empty (the default) keeps the in-memory Dataset path; non-empty
  /// points make_streaming_loader() (and the training examples) at an
  /// existing corpus written by export_training_corpus() or
  /// examples/export_corpus.  Env: LMMIR_CORPUS_DIR.
  std::string corpus_dir;
  /// Async double-buffered batch prefetch in the streaming loader (next
  /// batch stacked on a pool worker while the current step runs).
  /// Bitwise-identical results on or off.  Env: LMMIR_PREFETCH=0 to
  /// disable.
  bool prefetch = true;

  /// Defaults overridden from LMMIR_* environment variables.
  static PipelineOptions from_environment();
};

class Pipeline {
 public:
  Pipeline() : Pipeline(PipelineOptions::from_environment()) {}
  explicit Pipeline(PipelineOptions options) : opts_(std::move(options)) {}

  const PipelineOptions& options() const { return opts_; }
  const train::TrainConfig& train_config() const { return opts_.train; }

  /// Generate + featurize + golden-solve the training pool.
  data::Dataset build_training_dataset() const;

  /// Spill the training pool to a shard corpus under `dir` instead of
  /// holding it resident: same cases, bitwise-identical samples, but the
  /// memory footprint is one sample at a time (docs/DATA.md).
  data::CorpusManifest export_training_corpus(
      const std::string& dir, std::size_t samples_per_shard = 64) const;

  /// Open a shard corpus (defaults to options().corpus_dir) as a
  /// streaming batch provider wired to this pipeline's train config and
  /// prefetch knob; feed it to train::fit.  The returned loader owns the
  /// corpus mapping.
  std::unique_ptr<data::StreamingLoader> make_streaming_loader(
      const std::string& dir = "") const;

  /// The 10 hidden Table-II cases.
  std::vector<data::Sample> build_hidden_testset() const;

  /// Build a sample from an external SPICE netlist file.
  data::Sample sample_from_netlist_file(const std::string& path) const;

  /// Train (two-stage) and evaluate on the hidden cases in one call.
  std::vector<train::EvalCase> train_and_evaluate(
      models::IrModel& model, const data::Dataset& dataset,
      const std::vector<data::Sample>& tests,
      float extra_augmentation = 1.0f) const;

  /// Put a model behind a dynamic-batching inference server (takes shared
  /// ownership; the model is switched to eval mode).  Batch-size /
  /// wait-window / dispatcher-count defaults come from `options`; override
  /// any of them before heavy traffic.
  std::unique_ptr<serve::InferenceServer> make_server(
      std::shared_ptr<models::IrModel> model,
      serve::ServeOptions options = {}) const;

  /// Put a model behind an end-to-end raw-netlist session server: clients
  /// send SPICE text or value-edit deltas keyed by session id; feature
  /// extraction runs server-side with per-session warm reuse (see
  /// serve/session.hpp and docs/SERVING.md).  Featurization options
  /// (input side, token grid) and the session-cache bounds come from this
  /// pipeline's options; `options.sample` is overwritten accordingly.
  std::unique_ptr<serve::SessionServer> make_session_server(
      std::shared_ptr<models::IrModel> model,
      serve::SessionServeOptions options = {}) const;

 private:
  PipelineOptions opts_;
};

}  // namespace lmmir::core
