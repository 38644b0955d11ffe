#include "train/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace lmmir::train {

using tensor::Tensor;

namespace {

/// One optimization pass over the provider's epoch with the given target
/// builder; returns the mean batch loss.  `batch` is the run-wide pooled
/// Batch — the provider reuses (or swaps) its tensors, so passing the
/// same instance across epochs and stages is what keeps steady-state
/// steps allocation-free.
template <typename TargetFn>
float run_epoch(models::IrModel& model, data::BatchProvider& provider,
                const TrainConfig& config, nn::Adam& opt, util::Rng& rng,
                data::Batch& batch, TargetFn&& make_target) {
  static obs::Counter& steps_total =
      obs::counter("lmmir_train_steps_total");
  static obs::Counter& samples_total =
      obs::counter("lmmir_train_samples_total");
  static obs::Histogram& step_seconds = obs::histogram(
      "lmmir_train_step_seconds", obs::seconds_buckets());

  provider.start_epoch(rng);
  double loss_sum = 0.0;
  std::size_t batches = 0;
  while (provider.next(batch)) {
    util::Stopwatch step_watch;
    const Tensor input =
        data::slice_channels(batch.circuit, model.in_channels());

    // One span per phase, each closed by the next emplace (a disabled
    // span costs one relaxed flag check).
    std::optional<obs::Span> phase;
    phase.emplace("train.forward");
    opt.zero_grad();
    const Tensor pred = model.forward(input, batch.tokens);
    const Tensor target = make_target(batch);
    Tensor loss;
    if (config.hotspot_weight > 0.0f) {
      // mean( w .* (p - t)^2 ), w = 1 + hw * (t / max t)^2 (constant).
      float tmax = 0.0f;
      for (float v : target.data()) tmax = std::max(tmax, v);
      std::vector<float> w(target.numel(), 1.0f);
      if (tmax > 0.0f)
        for (std::size_t j = 0; j < w.size(); ++j) {
          const float r = target.data()[j] / tmax;
          w[j] += config.hotspot_weight * r * r;
        }
      const Tensor weights = Tensor::from_data(target.shape(), std::move(w));
      const Tensor diff = tensor::sub(pred, target);
      loss = tensor::mean_all(
          tensor::mul(tensor::mul(diff, diff), weights));
    } else {
      loss = tensor::mse_loss(pred, target);
    }
    phase.emplace("train.backward");
    loss.backward();
    phase.emplace("train.optimizer");
    nn::clip_grad_norm(opt.params(), config.clip_norm);
    opt.step();
    phase.reset();

    loss_sum += loss.item();
    ++batches;
    steps_total.add();
    samples_total.add(static_cast<std::uint64_t>(batch.circuit.dim(0)));
    step_seconds.observe(step_watch.seconds());
  }
  return batches ? static_cast<float>(loss_sum / static_cast<double>(batches))
                 : 0.0f;
}

}  // namespace

data::LoaderOptions provider_options(const TrainConfig& config,
                                     bool prefetch) {
  data::LoaderOptions opts;
  opts.batch_size = config.batch_size;
  opts.augment = config.augment;
  opts.noise_std_max = config.noise_std_max;
  opts.prefetch = prefetch;
  return opts;
}

TrainHistory fit(models::IrModel& model, data::BatchProvider& provider,
                 const TrainConfig& config) {
  TrainHistory hist;
  util::Stopwatch watch;
  util::Rng rng(config.seed);
  model.set_training(true);

  nn::Adam opt(model.parameters(), config.lr);
  // One pooled Batch for the whole run: after a short warmup its tensors
  // just rotate through the provider (zero steady-state allocations).
  data::Batch batch;

  // Stage 1: reconstruction pre-training — the decoder reproduces the
  // (clean) current map from the noisy multimodal input.
  for (int e = 0; e < config.pretrain_epochs; ++e) {
    const float loss = run_epoch(model, provider, config, opt, rng, batch,
                                 [](const data::Batch& b) {
                                   return data::slice_channels(b.circuit, 1);
                                 });
    hist.pretrain_loss.push_back(loss);
    if (config.verbose)
      util::log_info("pretrain epoch ", e, " loss ", loss);
    opt.lr *= config.lr_decay;
  }

  // Stage 2: IR-drop fine-tuning.
  for (int e = 0; e < config.finetune_epochs; ++e) {
    const float loss =
        run_epoch(model, provider, config, opt, rng, batch,
                  [](const data::Batch& b) { return b.target; });
    hist.finetune_loss.push_back(loss);
    if (config.verbose)
      util::log_info("finetune epoch ", e, " loss ", loss);
    opt.lr *= config.lr_decay;
  }

  model.set_training(false);
  hist.seconds = watch.seconds();
  return hist;
}

TrainHistory fit(models::IrModel& model, const data::Dataset& dataset,
                 const TrainConfig& config) {
  data::DatasetBatchProvider provider(dataset, provider_options(config));
  return fit(model, provider, config);
}

grid::Grid2D predict_map(models::IrModel& model, const data::Sample& sample) {
  tensor::NoGradGuard no_grad;
  model.set_training(false);
  util::Rng rng(0);
  data::Batch batch = data::make_batch({sample}, {0}, 0.0f, rng);
  const Tensor input = data::slice_channels(batch.circuit, model.in_channels());
  // predict() nests a second NoGradGuard — nesting restores correctly.
  const Tensor pred = model.predict(input, batch.tokens);

  const std::size_t side = static_cast<std::size_t>(pred.dim(2));
  grid::Grid2D map(side, side);
  map.data() = pred.data();
  map.scale(1.0f / data::kTargetScale);  // back to percent-of-vdd
  return feat::restore_from_side(map, sample.adjust);
}

EvalCase evaluate_case(models::IrModel& model, const data::Sample& sample) {
  EvalCase ec;
  ec.name = sample.name;
  util::Stopwatch watch;
  const grid::Grid2D pred = predict_map(model, sample);
  ec.tat_seconds = watch.seconds();
  ec.golden_seconds = sample.golden_solve_seconds;
  ec.raw = eval::compute_metrics(pred, sample.truth_full);
  ec.f1 = ec.raw.f1;
  ec.mae_1e4_volts = data::percent_mae_to_1e4_volts(ec.raw.mae, sample.vdd);
  return ec;
}

std::vector<EvalCase> evaluate_testset(models::IrModel& model,
                                       const std::vector<data::Sample>& tests) {
  std::vector<EvalCase> rows;
  rows.reserve(tests.size() + 1);
  EvalCase avg;
  avg.name = "Avg";
  for (const auto& s : tests) {
    rows.push_back(evaluate_case(model, s));
    avg.f1 += rows.back().f1;
    avg.mae_1e4_volts += rows.back().mae_1e4_volts;
    avg.tat_seconds += rows.back().tat_seconds;
    avg.golden_seconds += rows.back().golden_seconds;
  }
  if (!tests.empty()) {
    const double n = static_cast<double>(tests.size());
    avg.f1 /= n;
    avg.mae_1e4_volts /= n;
    avg.tat_seconds /= n;
    avg.golden_seconds /= n;
  }
  rows.push_back(avg);
  return rows;
}

}  // namespace lmmir::train
