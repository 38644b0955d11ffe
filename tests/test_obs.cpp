// obs: metrics registry aggregation across pool workers, histogram bucket
// semantics, text/JSON exporters, span nesting + trace-file round-trip,
// and the non-interference contract (metrics/tracing change no results at
// any thread count).
//
// Note: ctest runs each case in its own process, but the CI sanitize job
// runs them all in one — so cases use uniquely-named instruments, set the
// enable flags they need, and never assume a virgin registry or ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "data/loader.hpp"
#include "data/sample.hpp"
#include "gen/suite.hpp"
#include "models/lmmir_model.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "train/trainer.hpp"

namespace {

using namespace lmmir;

// ---------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterAggregatesAcrossPoolWorkers) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::counter("test_pool_adds_total");
  runtime::ThreadPool pool(8);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 256; ++i)
    futs.push_back(pool.submit([&c] { c.add(); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(c.value(), 256u);
}

TEST(ObsMetrics, DisabledWritesAreNoOps) {
  obs::set_metrics_enabled(false);
  obs::Counter& c = obs::counter("test_disabled_total");
  obs::Gauge& g = obs::gauge("test_disabled_gauge");
  obs::Histogram& h = obs::histogram("test_disabled_hist", {1.0, 10.0});
  c.add(5);
  g.add(2.5);
  g.set(7.0);
  h.observe(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);

  obs::set_metrics_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(ObsMetrics, GaugeAddAccumulatesAndSetCollapses) {
  obs::set_metrics_enabled(true);
  obs::Gauge& g = obs::gauge("test_gauge_levels");
  runtime::ThreadPool pool(4);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(pool.submit([&g] { g.add(1.0); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(g.value(), 16.0);  // 1.0 sums exactly in binary
  g.set(42.0);                 // overwrites every shard's contribution
  EXPECT_EQ(g.value(), 42.0);
  g.add(-2.0);
  EXPECT_EQ(g.value(), 40.0);
}

TEST(ObsMetrics, HistogramBucketBoundariesAreInclusiveUpperEdges) {
  obs::set_metrics_enabled(true);
  obs::Histogram& h = obs::histogram("test_hist_edges", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 5.0, 7.0}) h.observe(v);
  const obs::Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);  // 0.5, 1.0 (le=1 includes 1)
  EXPECT_EQ(s.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(s.counts[2], 1u);  // 5.0
  EXPECT_EQ(s.counts[3], 1u);  // 7.0 -> +Inf
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 17.0);
}

TEST(ObsMetrics, RenderTextIsPrometheusShaped) {
  obs::set_metrics_enabled(true);
  obs::counter("test_text_events_total").add(3);
  obs::Histogram& h = obs::histogram("test_text_latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  const std::string text = obs::MetricsRegistry::instance().render_text();
  EXPECT_NE(text.find("# TYPE test_text_events_total counter\n"
                      "test_text_events_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_text_latency histogram"),
            std::string::npos);
  // Cumulative buckets: le=1 -> 1, le=2 -> 2, +Inf -> 3.
  EXPECT_NE(text.find("test_text_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_text_latency_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_text_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_text_latency_count 3"), std::string::npos);
}

TEST(ObsMetrics, RenderJsonCarriesAllInstrumentKinds) {
  obs::set_metrics_enabled(true);
  obs::counter("test_json_total").add(2);
  obs::gauge("test_json_gauge").set(1.5);
  obs::histogram("test_json_hist", {10.0}).observe(4.0);
  const std::string json = obs::MetricsRegistry::instance().render_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"test_json_gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test_json_hist\":{\"buckets\":[[10,1],[\"+Inf\",0]]"),
            std::string::npos);
}

TEST(ObsMetrics, ResetZeroesButKeepsReferencesValid) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::counter("test_reset_total");
  obs::Histogram& h = obs::histogram("test_reset_hist", {1.0});
  c.add(9);
  h.observe(0.5);
  obs::MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(1);  // the reference survives reset
  EXPECT_EQ(c.value(), 1u);
}

// ---------------------------------------------------------------- tracing

TEST(ObsTrace, SpanNestingMaintainsThreadCurrent) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  EXPECT_EQ(obs::current_span_id(), 0u);
  {
    obs::Span outer("outer");
    EXPECT_NE(outer.id(), 0u);
    EXPECT_EQ(obs::current_span_id(), outer.id());
    {
      obs::Span inner("inner");
      EXPECT_EQ(obs::current_span_id(), inner.id());
    }
    EXPECT_EQ(obs::current_span_id(), outer.id());
  }
  EXPECT_EQ(obs::current_span_id(), 0u);
  EXPECT_EQ(obs::buffered_events(), 2u);
  obs::set_trace_enabled(false);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  obs::set_trace_enabled(false);
  const std::size_t before = obs::buffered_events();
  {
    obs::Span s("ghost");
    EXPECT_EQ(s.id(), 0u);
    EXPECT_EQ(obs::current_span_id(), 0u);
  }
  EXPECT_EQ(obs::emit_span("ghost2", 1, 2), 0u);
  EXPECT_EQ(obs::buffered_events(), before);
}

TEST(ObsTrace, ClearTraceRewindsBuffers) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  { obs::Span s("a"); }
  { obs::Span s("b"); }
  EXPECT_EQ(obs::buffered_events(), 2u);
  obs::clear_trace();
  EXPECT_EQ(obs::buffered_events(), 0u);
  obs::set_trace_enabled(false);
}

/// Extract `"key":<number>` following the event whose name matches.
double event_field(const std::string& text, const std::string& name,
                   const std::string& key) {
  const std::size_t at = text.find("{\"name\":\"" + name + "\"");
  EXPECT_NE(at, std::string::npos) << "no event named " << name;
  if (at == std::string::npos) return -1.0;
  const std::size_t k = text.find("\"" + key + "\":", at);
  EXPECT_NE(k, std::string::npos);
  if (k == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + k + key.size() + 3, nullptr);
}

TEST(ObsTrace, TraceFileRoundTripsNestedSpans) {
  obs::set_trace_enabled(true);
  obs::clear_trace();
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::Span outer("outer");
    outer_id = outer.id();
    {
      obs::Span inner("inner");
      inner_id = inner.id();
    }
  }
  const std::uint64_t t0 = obs::now_ns();
  const std::uint64_t req =
      obs::emit_span("request", t0, t0 + 1000, outer_id, obs::kRequestTrack);
  EXPECT_NE(req, 0u);
  obs::set_trace_enabled(false);

  const std::string path = testing::TempDir() + "lmmir_test_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  // Chrome-trace shape: object with traceEvents, complete ("X") events,
  // thread_name metadata, and the named request pseudo-track.
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("{\"name\":\"requests\"}"), std::string::npos);

  // Parentage round-trips: inner -> outer, request -> outer.
  const std::string inner_args = "\"args\":{\"id\":" +
                                 std::to_string(inner_id) + ",\"parent\":" +
                                 std::to_string(outer_id) + "}";
  EXPECT_NE(text.find(inner_args), std::string::npos) << text;
  const std::string req_args = "\"args\":{\"id\":" + std::to_string(req) +
                               ",\"parent\":" + std::to_string(outer_id) + "}";
  EXPECT_NE(text.find(req_args), std::string::npos) << text;

  // Timestamp containment: inner within [outer.ts, outer.ts + outer.dur].
  const double outer_ts = event_field(text, "outer", "ts");
  const double outer_dur = event_field(text, "outer", "dur");
  const double inner_ts = event_field(text, "inner", "ts");
  const double inner_dur = event_field(text, "inner", "dur");
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-3);

  obs::clear_trace();
  std::remove(path.c_str());
}

// ----------------------------------------------------- non-interference

std::uint64_t fnv_floats(std::uint64_t h, const std::vector<float>& v) {
  for (float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Featurize + golden-solve one generated case: covers the feature,
/// sparse, pdn, and runtime instrumentation paths.
std::uint64_t sample_checksum() {
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.05;
  const auto configs = gen::fake_training_suite(1, 4242, suite_opts);
  data::SampleOptions sopts;
  sopts.input_side = 16;
  sopts.pc_grid = 4;
  const data::Sample s = data::make_sample(configs[0], sopts);
  std::uint64_t h = 1469598103934665603ull;
  h = fnv_floats(h, s.circuit.data());
  h = fnv_floats(h, s.target.data());
  return h;
}

TEST(ObsDeterminism, MetricsAndTracePerturbNothingAtAnyThreadCount) {
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  runtime::set_global_threads(1);
  const std::uint64_t base = sample_checksum();

  runtime::set_global_threads(8);
  EXPECT_EQ(sample_checksum(), base) << "thread count changed results";

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  runtime::set_global_threads(1);
  EXPECT_EQ(sample_checksum(), base) << "instrumentation changed results";
  runtime::set_global_threads(8);
  EXPECT_EQ(sample_checksum(), base)
      << "instrumentation changed results at 8 threads";
  EXPECT_GT(obs::buffered_events(), 0u);  // the run did record spans

  obs::set_trace_enabled(false);
  obs::clear_trace();
  runtime::set_global_threads(1);
}

/// Losses of a small two-stage fit followed by its final weights.
std::vector<float> fit_trajectory(const data::Dataset& ds) {
  models::LmmirConfig mc;
  mc.base_channels = 4;
  mc.levels = 2;
  mc.token_dim = 16;
  mc.lnt_blocks = 1;
  models::LMMIR model(mc);
  train::TrainConfig cfg;
  cfg.pretrain_epochs = 1;
  cfg.finetune_epochs = 1;
  cfg.batch_size = 2;
  cfg.seed = 5;
  const train::TrainHistory hist = train::fit(model, ds, cfg);
  std::vector<float> out = hist.pretrain_loss;
  out.insert(out.end(), hist.finetune_loss.begin(), hist.finetune_loss.end());
  for (const tensor::Tensor& p : model.parameters())
    out.insert(out.end(), p.data().begin(), p.data().end());
  return out;
}

TEST(ObsDeterminism, TracedFitMatchesUntracedFit) {
  data::DatasetOptions opts;
  opts.sample.input_side = 16;
  opts.sample.pc_grid = 4;
  opts.fake_cases = 2;
  opts.real_cases = 1;
  opts.suite_scale = 0.04;
  opts.seed = 17;
  const data::Dataset ds = data::build_training_dataset(opts);
  const std::size_t saved_threads = runtime::global_threads();
  runtime::set_global_threads(3);

  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const std::vector<float> plain = fit_trajectory(ds);

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  const std::vector<float> traced = fit_trajectory(ds);
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  runtime::set_global_threads(saved_threads);

  EXPECT_EQ(plain, traced) << "tracing changed the fit";  // bitwise
  const std::string path = testing::TempDir() + "lmmir_test_fit_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  for (const char* name :
       {"train.forward", "train.backward", "train.optimizer"})
    EXPECT_NE(ss.str().find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  obs::clear_trace();
  std::remove(path.c_str());
}

}  // namespace
