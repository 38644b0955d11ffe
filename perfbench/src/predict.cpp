// predict_cold: a closed loop of 4 clients against the shipped
// core::Pipeline -> serve::SessionServer.  Every request opens a new
// session carrying a full netlist of ~139k elements (384 um die), drawn
// from a pool of distinct texts — the paper's large-netlist regime, where
// parse + featurize dominate and the session cache inserts and evicts.
#include <cmath>
#include <thread>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "spice/parser.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lmmir;

namespace {

constexpr std::size_t kClients = 4;
constexpr double kColdSideUm = 384.0;
constexpr std::size_t kColdTexts = 4;
// Each set-up parses and featurizes four large netlists; the median of
// these repeats is reported.
constexpr int kSetupReps = 3;

struct Request {
  bool ok = false;
  double latency_ms = 0.0;
  double done_s = 0.0;  // completion, seconds into the phase
  serve::SessionResult result;  // percent_map dropped to bound memory
};

/// Touch every text once.
void warm_up(serve::SessionServer& server,
             const std::vector<std::string>& texts) {
  std::vector<serve::SessionTicket> tickets;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    serve::SessionRequest req;
    req.session_id = "warmup" + std::to_string(i);
    req.netlist_text = texts[i];
    tickets.push_back(server.submit(std::move(req)));
  }
  for (auto& t : tickets) t.get();
}

/// The closed loop: each client sends its next request as soon as the
/// previous one completed, until `seconds` have passed.  `next_op` carries
/// each client's sequence position across phases, so session ids stay new.
std::vector<Request> run_clients(serve::SessionServer& server,
                                 const std::vector<std::string>& texts,
                                 std::uint64_t seed, double seconds,
                                 std::vector<std::size_t>& next_op,
                                 double& wall_s) {
  std::vector<std::vector<Request>> per_client(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::jthread> clients;  // joined on every exit path
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng pick(mix_seed(seed, 500 + c + 7919 * next_op[c]));
      while (seconds_since(start) < seconds) {
        const std::size_t k = static_cast<std::size_t>(
            pick.randint(0, static_cast<int>(texts.size()) - 1));
        serve::SessionRequest req;
        req.session_id = "client" + std::to_string(c) + '-' +
                         std::to_string(next_op[c]++);  // a new session
        req.netlist_text = texts[k];
        req.id = std::to_string(k);
        Request rec;
        obs::Span span("bench.serve.request", 0);  // records only when traced
        const Clock::time_point t0 = Clock::now();
        try {
          serve::SessionTicket ticket;
          {
            obs::Span s("bench.serve.submit");
            ticket = server.submit(std::move(req));
          }
          obs::Span s("bench.serve.wait");
          rec.result = ticket.get();
          rec.result.percent_map = grid::Grid2D();
          rec.ok = true;
        } catch (const std::exception& e) {
          std::printf("request failed: %s\n", e.what());
        }
        rec.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        rec.done_s = seconds_since(start);
        per_client[c].push_back(std::move(rec));
      }
    });
  }
  for (auto& t : clients) t.join();
  wall_s = seconds_since(start);
  std::vector<Request> all;
  for (auto& v : per_client)
    for (auto& r : v) all.push_back(std::move(r));
  return all;
}

/// Every served map against the cold uncached path of its text.  A run in
/// which no request succeeded has checked nothing, so it fails too.
void check_outputs(models::IrModel& model, const std::vector<std::string>& texts,
                   const std::vector<Request>& requests, Report& report) {
  const data::SampleOptions sopts = shipped_sample_options();
  std::vector<std::vector<float>> refs(texts.size());
  for (std::size_t k = 0; k < texts.size(); ++k)
    refs[k] = cold_prediction(model, spice::parse_netlist_string(texts[k]), sopts);
  std::size_t checked = 0, mismatches = 0;
  for (const Request& r : requests) {
    if (!r.ok) continue;
    ++checked;
    const tensor::Tensor& map = r.result.map;
    if (!map.defined() || map.data() != refs[std::stoul(r.result.id)])
      ++mismatches;
  }
  report.check(checked > 0, "no request succeeded, so no served map was checked");
  report.check(mismatches == 0,
               std::to_string(mismatches) + " of " + std::to_string(checked) +
                   " served maps differ from the cold uncached path");
}

}  // namespace

void run_predict(const Args& args, Report& report) {
  std::vector<std::string> texts;
  std::uint64_t fnv = fnv1a("predict_cold");
  for (std::size_t i = 0; i < kColdTexts; ++i) {
    texts.push_back(make_netlist_text(kColdSideUm, mix_seed(args.seed, i)));
    fnv = fnv1a(texts.back(), fnv);
  }
  report.fingerprint(fnv);

  // Set-up: model + server construction and warm-up, repeated; the last
  // server serves the timed phase.
  std::vector<double> setup_s;
  std::shared_ptr<models::IrModel> model;
  std::unique_ptr<serve::SessionServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    model = make_model();
    core::Pipeline pipe;
    server = pipe.make_session_server(model);
    warm_up(*server, texts);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<std::size_t> next_op(kClients, 0);
  double wall_s = 0.0;
  const std::vector<Request> requests =
      run_clients(*server, texts, args.seed, args.seconds, next_op, wall_s);
  const double rss = peak_rss_mb();

  // Throughput is the median over equal windows of the timed phase, so a
  // host stall in part of a run moves it less than the whole-run mean.
  constexpr std::size_t kWindows = 5;
  std::vector<double> latency, window_count(kWindows, 0.0);
  std::vector<serve::SessionResult> results;
  for (const Request& r : requests) {
    report.op(r.ok);
    if (!r.ok) continue;
    latency.push_back(r.latency_ms);
    results.push_back(r.result);
    window_count[std::min(kWindows - 1, static_cast<std::size_t>(
                                            r.done_s / wall_s * kWindows))] += 1;
  }
  std::vector<double> window_rps;
  for (double c : window_count) window_rps.push_back(c * kWindows / wall_s);
  const std::size_t n = latency.size();
  report.metric("setup_s", median(setup_s), "s",
                "median of " + std::to_string(kSetupReps));
  report.metric("throughput_rps", median(window_rps), "req/s",
                std::to_string(n) + " requests in " + std::to_string(wall_s) +
                    " s, median of " + std::to_string(kWindows) + " windows");
  report.metric("latency_p50_ms", quantile(latency, 0.5), "ms",
                "n=" + std::to_string(n));
  report.metric("latency_p90_ms", quantile(latency, 0.9), "ms",
                "n=" + std::to_string(n) + ", " +
                    std::to_string(n - static_cast<std::size_t>(
                                           std::ceil(0.9 * n))) +
                    " beyond");
  report.metric("peak_rss_mb", rss, "MiB");

  check_outputs(*model, texts, requests, report);
  if (!args.trace) return;

  report_serve_layers(report, results, server->cache_stats(),
                      server->server_stats());
  // Traced replay of the same loop: tracing overhead and pool occupancy.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  double traced_wall_s = 0.0;
  const std::vector<Request> traced = run_clients(
      *server, texts, args.seed, args.seconds / 2, next_op, traced_wall_s);
  obs::set_trace_enabled(false);
  report.metric("runtime.pool_busy_share", pool_busy_share(traced_wall_s),
                "ratio");
  std::vector<double> traced_latency;
  for (const Request& r : traced)
    if (r.ok) traced_latency.push_back(r.latency_ms);
  report.metric("obs.trace_overhead_ratio",
                median(traced_latency) / quantile(latency, 0.5), "ratio",
                "traced / untraced p50 latency");

  probe_eco_layers(texts[0], report);
  probe_train_layers(texts[0], args, report);
  obs::set_metrics_enabled(false);
  probe_layers(texts[0], *model, args, report);
}

}  // namespace perfbench
