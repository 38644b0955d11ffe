// train_stream: Pipeline::export_training_corpus (8 fake + 4 real cases at
// scale 0.09) is set-up; the timed phase is train::fit over the shipped
// StreamingLoader for both stages (one epoch each) with the shipped
// TrainConfig (batch 2, augmentation on), repeated with a fresh model.
// It is the only workload that runs the train, data (shard/loader), nn
// autograd and optim layers, and tensor in grad mode.
#include <cmath>
#include <filesystem>

#include "core/pipeline.hpp"
#include "data/shard.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "spice/writer.hpp"
#include "train/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lmmir;

namespace {

// Set-up is timed in units of back-to-back corpus exports; setup_s is the
// median unit time per export.  One export is ~70 ms, too short to time
// alone on a host whose speed wanders.
constexpr int kSetupUnits = 5;
constexpr int kExportsPerUnit = 4;

/// The corpus comes from the shipped pipeline seed on every run: the suite
/// draws each case's die size from its seed, so a seeded corpus would make
/// the set-up work (its golden solves) vary by about 20% between seeds.
/// The run seed drives the training: shuffle order and augmentation.
core::PipelineOptions train_options(std::uint64_t seed) {
  core::PipelineOptions o = core::PipelineOptions::from_environment();
  o.fake_cases = 8;
  o.real_cases = 4;
  o.train.seed = mix_seed(seed, 0) >> 33;
  o.train.pretrain_epochs = 1;
  o.train.finetune_epochs = 1;
  return o;
}

/// FNV-1a over every sample's tensors, in corpus order (the shard files
/// themselves also carry golden-solve timings, which differ run to run).
std::uint64_t corpus_fingerprint(const std::string& dir) {
  const data::ShardCorpus corpus(dir);
  std::uint64_t h = fnv1a("train_stream");
  for (std::size_t i = 0; i < corpus.sample_count(); ++i) {
    const data::Sample s = corpus.read_sample(i);
    h = fnv1a(s.target.data(),
              fnv1a(s.tokens.data(), fnv1a(s.circuit.data(), fnv1a(s.name, h))));
  }
  return h;
}

struct Fit {
  double seconds = 0.0;
  std::size_t samples = 0;
  std::vector<float> losses;  // pretrain then finetune epochs
  std::uint64_t weights_fnv = 0;
  std::vector<double> step_ms;
};

/// One fit with a fresh model; `report_loader` adds the loader layers.
Fit run_fit(const core::Pipeline& pipe, const std::string& dir,
            Report& report, bool report_loader = false) {
  auto loader = pipe.make_streaming_loader(dir);
  TimedProvider timed(*loader);
  auto model = make_model();
  Fit fit;
  try {
    const train::TrainHistory hist =
        train::fit(*model, timed, pipe.train_config());
    fit.seconds = hist.seconds;
    fit.losses = hist.pretrain_loss;
    fit.losses.insert(fit.losses.end(), hist.finetune_loss.begin(),
                      hist.finetune_loss.end());
  } catch (const std::exception& e) {
    report.error(std::string("fit: ") + e.what());
  }
  const train::TrainConfig& cfg = pipe.train_config();
  fit.samples = loader->epoch_size() *
                static_cast<std::size_t>(cfg.pretrain_epochs + cfg.finetune_epochs);
  fit.weights_fnv = kFnvBasis;
  for (const tensor::Tensor& p : model->parameters())
    fit.weights_fnv = fnv1a(p.data(), fit.weights_fnv);
  fit.step_ms = timed.step_ms;
  for (std::size_t i = 0; i < timed.wait_ms.size(); ++i) report.op(true);
  if (report_loader) report_loader_layers(report, timed, fit.seconds, fit.samples);
  return fit;
}

}  // namespace

void run_train(const Args& args, Report& report) {
  const core::PipelineOptions opts = train_options(args.seed);
  const core::Pipeline pipe(opts);

  // Set-up: the corpus export, repeated into separate directories; every
  // export must hold the same samples.  The last unit's first export
  // feeds the timed phase.
  const std::string root = args.out_dir + "/corpus";
  const std::string dir = root + "/0";
  struct RemoveOnExit {
    const std::string& dir;
    ~RemoveOnExit() { std::filesystem::remove_all(dir); }
  } cleanup{root};
  std::vector<double> setup_s;
  std::vector<std::uint64_t> fingerprints;
  for (int unit = 0; unit < kSetupUnits; ++unit) {
    std::filesystem::remove_all(root);
    const Clock::time_point t0 = Clock::now();
    for (int e = 0; e < kExportsPerUnit; ++e)
      pipe.export_training_corpus(root + "/" + std::to_string(e));
    setup_s.push_back(seconds_since(t0) / kExportsPerUnit);
    for (int e = 0; e < kExportsPerUnit; ++e)
      fingerprints.push_back(
          corpus_fingerprint(root + "/" + std::to_string(e)));
  }
  report.fingerprint(fnv1a(&opts.train.seed, sizeof opts.train.seed,
                           fingerprints.back()));
  report.check(std::all_of(fingerprints.begin(), fingerprints.end(),
                           [&](std::uint64_t f) { return f == fingerprints[0]; }),
               "corpus exports of the same seed differ");

  // Warm-up: one untimed fit, so the timed fits start with the heap,
  // page tables and prefetch thread already warm (the first fit of a
  // process runs up to 10% slower).  It is the reference of the repeat
  // check below and counts toward neither setup_s nor the timed phase.
  const Fit warm = run_fit(pipe, dir, report);

  // Timed phase: as many whole fits as the first timed fit's time says
  // fit in the run time.
  std::vector<Fit> fits;
  const Clock::time_point start = Clock::now();
  fits.push_back(run_fit(pipe, dir, report));
  const std::size_t n_fits = whole_repeats(args.seconds, seconds_since(start));
  while (fits.size() < n_fits) fits.push_back(run_fit(pipe, dir, report));
  const double rss = peak_rss_mb();

  // Throughput is the median per-fit rate (see predict.cpp).
  std::vector<double> fit_rate, step_ms;
  for (const Fit& f : fits) {
    fit_rate.push_back(static_cast<double>(f.samples) / f.seconds);
    step_ms.insert(step_ms.end(), f.step_ms.begin(), f.step_ms.end());
  }
  const std::size_t n = step_ms.size();
  report.metric("setup_s", median(setup_s), "s",
                "per export, median of " + std::to_string(kSetupUnits) +
                    " units of " + std::to_string(kExportsPerUnit));
  report.metric("throughput_rps", median(fit_rate), "req/s",
                "training samples per second of fit, median of " +
                    std::to_string(fits.size()) + " fits");
  report.metric("latency_p50_ms", quantile(step_ms, 0.5), "ms",
                "per step, n=" + std::to_string(n));
  report.metric("latency_p90_ms", quantile(step_ms, 0.9), "ms",
                "per step, n=" + std::to_string(n));
  report.metric("peak_rss_mb", rss, "MiB");

  // Output checks: finite losses, and every timed fit (fresh model, same
  // seed, same corpus) reproduces the warm-up fit bitwise.
  report.check(!warm.losses.empty() &&
                   std::all_of(warm.losses.begin(), warm.losses.end(),
                               [](float l) { return std::isfinite(l); }),
               "non-finite training loss");
  for (const Fit& f : fits)
    report.check(f.losses == warm.losses && f.weights_fnv == warm.weights_fnv,
                 "repeated fit differs in losses or final weights");
  std::printf("fit seconds: warm-up %.3f, timed", warm.seconds);
  for (const Fit& f : fits) std::printf(" %.3f", f.seconds);
  std::printf("\nfinal loss %.9g, weights fnv %016llx, %zu timed fits\n",
              warm.losses.empty() ? 0.0 : warm.losses.back(),
              static_cast<unsigned long long>(warm.weights_fnv), fits.size());
  if (!args.trace) return;

  // Traced replay: one fit with tracing and metrics on.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  Fit traced;
  {
    obs::Span request("bench.request", 0);
    traced = run_fit(pipe, dir, report, true);
  }
  obs::set_trace_enabled(false);
  report.metric("runtime.pool_busy_share", pool_busy_share(traced.seconds),
                "ratio");
  std::vector<double> untraced_s;
  for (const Fit& f : fits) untraced_s.push_back(f.seconds);
  report.metric("obs.trace_overhead_ratio", traced.seconds / median(untraced_s),
                "ratio", "traced / untraced fit");

  // The netlist of the corpus's first case, for the layer probes.
  const gen::GeneratorConfig first = gen::fake_training_suite(
      opts.fake_cases, opts.seed, gen::SuiteOptions{opts.suite_scale})[0];
  const std::string text =
      spice::write_netlist_string(gen::generate_pdn(first));
  probe_serve_layers(text, report);
  probe_eco_layers(text, report);
  obs::set_metrics_enabled(false);
  probe_layers(text, *make_model(), args, report);
}

}  // namespace perfbench
