// Per-layer attribution shared by the workloads (see workloads.hpp).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>

#include "core/pipeline.hpp"
#include "data/shard.hpp"
#include "features/feature_context.hpp"
#include "models/registry.hpp"
#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "pointcloud/cloud.hpp"
#include "pointcloud/pool.hpp"
#include "sparse/cg.hpp"
#include "spice/parser.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lmmir;

std::shared_ptr<models::IrModel> make_model() {
  std::shared_ptr<models::IrModel> model =
      models::make_model("LMM-IR", core::PipelineOptions::from_environment().seed);
  model->set_training(false);
  return model;
}

data::SampleOptions shipped_sample_options() {
  return core::PipelineOptions::from_environment().sample;
}

namespace {

/// [n, C, S, S] / [n, T, F] batch of one featurized netlist repeated n
/// times, sliced to the model's input channels.
std::pair<tensor::Tensor, tensor::Tensor> repeat_batch(
    const data::FeaturizedNetlist& f, std::size_t n, int in_channels) {
  const auto& cs = f.circuit.shape();
  const auto& ts = f.tokens.shape();
  std::vector<float> c, t;
  for (std::size_t i = 0; i < n; ++i) {
    c.insert(c.end(), f.circuit.data().begin(), f.circuit.data().end());
    t.insert(t.end(), f.tokens.data().begin(), f.tokens.data().end());
  }
  const int batch = static_cast<int>(n);
  tensor::Tensor circuit =
      tensor::Tensor::from_data({batch, cs[0], cs[1], cs[2]}, std::move(c));
  return {data::slice_channels(circuit, in_channels),
          tensor::Tensor::from_data({batch, ts[0], ts[1]}, std::move(t))};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// ||b - A x|| / ||b|| of a per-node solution, recomputed from a fresh
/// assembly of the circuit.
double true_residual(const pdn::Circuit& circuit, const pdn::Solution& sol) {
  const pdn::AssembledSystem sys = pdn::assemble_ir_system(circuit);
  if (sol.node_voltage.size() != sys.unknown_of.size())
    return std::numeric_limits<double>::infinity();
  std::vector<double> x(sys.matrix.dim(), 0.0), ax(sys.matrix.dim(), 0.0);
  for (std::size_t node = 0; node < sys.unknown_of.size(); ++node)
    if (sys.unknown_of[node] >= 0)
      x[static_cast<std::size_t>(sys.unknown_of[node])] = sol.node_voltage[node];
  sys.matrix.multiply(x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    rr += (sys.rhs[i] - ax[i]) * (sys.rhs[i] - ax[i]);
    bb += sys.rhs[i] * sys.rhs[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : 0.0;
}

}  // namespace

std::vector<float> cold_prediction(models::IrModel& model,
                                   const spice::Netlist& nl,
                                   const data::SampleOptions& opts) {
  data::SampleOptions cold = opts;
  cold.feature_context = nullptr;  // fresh context: nothing reused
  const data::FeaturizedNetlist f = data::featurize_netlist(nl, cold);
  auto [circuit, tokens] = repeat_batch(f, 1, model.in_channels());
  return model.predict(circuit, tokens).data();
}

void report_serve_layers(Report& report,
                         const std::vector<serve::SessionResult>& results,
                         const serve::SessionCacheStats& cache,
                         const serve::ServerStats& server) {
  std::vector<double> extract, queue, compute, other;
  for (const serve::SessionResult& r : results) {
    extract.push_back(r.extract_us / 1e3);
    queue.push_back(r.queue_us / 1e3);
    compute.push_back(r.compute_us / 1e3);
    other.push_back((r.total_us - r.extract_us - r.queue_us - r.compute_us) /
                    1e3);
  }
  const std::string n = "n=" + std::to_string(results.size());
  report.metric("serve.extract_ms", median(extract), "ms", n);
  report.metric("serve.queue_ms", median(queue), "ms", n);
  report.metric("serve.compute_ms", median(compute), "ms", n);
  report.metric("serve.other_ms", median(other), "ms", n);
  report.metric("serve.batch_mean", server.mean_batch, "count");
  report.metric("serve.rejected",
                static_cast<double>(server.rejected_queue_full +
                                    server.rejected_shutdown +
                                    server.timed_out),
                "count");
  const double requests = static_cast<double>(cache.requests);
  report.metric("serve.session_hit_ratio",
                ratio(static_cast<double>(cache.hits), requests), "ratio");
  report.metric("serve.revision_reuse_ratio",
                ratio(static_cast<double>(cache.revision_reuses), requests),
                "ratio");
  report.metric("serve.evictions",
                static_cast<double>(cache.evictions_lru + cache.evictions_memory),
                "count");
  report.metric("serve.resident_mb",
                static_cast<double>(cache.peak_resident_bytes) / (1 << 20),
                "MiB");
  report.metric("features.channels_reused_ratio",
                ratio(static_cast<double>(cache.channels_reused),
                      static_cast<double>(cache.channels_reused +
                                          cache.channels_computed)),
                "ratio");
}

void probe_serve_layers(const std::string& text, Report& report) {
  const spice::Netlist base = spice::parse_netlist_string(text);
  core::Pipeline pipe;
  auto server = pipe.make_session_server(make_model());
  std::vector<serve::SessionResult> results;
  auto send = [&](serve::SessionRequest req) {
    req.session_id = "probe";
    try {
      results.push_back(server->predict(std::move(req)));
    } catch (const std::exception& e) {
      report.error(std::string("serve probe: ") + e.what());
    }
  };
  serve::SessionRequest full;
  full.netlist_text = text;
  send(std::move(full));
  for (double factor : {1.02, 1.04, 1.06}) {
    serve::SessionRequest delta;
    delta.edits = load_sweep_edits(base, factor);
    send(std::move(delta));
  }
  send(serve::SessionRequest{});  // replay
  report_serve_layers(report, results, server->cache_stats(),
                      server->server_stats());
}

void probe_eco_layers(const std::string& text, Report& report) {
  Clock::time_point t0 = Clock::now();
  spice::Netlist nl = spice::parse_netlist_string(text);
  pdn::SolverContext ctx;
  const pdn::Solution cold = ctx.solve(pdn::Circuit(nl));
  const double cold_s = seconds_since(t0);
  apply_edits(nl, load_sweep_edits(nl, 1.05));
  t0 = Clock::now();
  const pdn::Circuit circuit(nl);
  const pdn::Solution eco = ctx.solve(circuit);
  const double eco_s = seconds_since(t0);
  auto solved = [](const pdn::Solution& s) { return s.converged && !s.breakdown; };
  if (!solved(cold) || !solved(eco))
    report.error("eco probe: solve did not converge");
  report.metric("pdn.solve_cold_s", cold_s, "s", "SPICE text -> solution");
  report.metric("pdn.solve_eco_s", eco_s, "s", "load sweep -> solution");
  report.metric("sparse.eco_iterations", static_cast<double>(eco.cg_iterations),
                "count");
  report.metric("sparse.warm_iteration_ratio",
                ratio(static_cast<double>(eco.cg_iterations),
                      static_cast<double>(cold.cg_iterations)),
                "ratio");
  report.metric("sparse.precond_apply_share",
                ratio(eco.precond_apply_seconds, eco_s), "ratio");

  // Output checks: the recomputed residual of the ECO solution and of a
  // cold solve of the same revision, and their agreement.  Both iterates
  // are within the tolerance of the same system, so their node voltages
  // must agree far below any reported IR drop.
  const double tol = sparse::CgOptions{}.tolerance;
  const pdn::Solution fresh = pdn::solve_ir_drop(circuit);
  const double eco_residual = true_residual(circuit, eco);
  const double fresh_residual = true_residual(circuit, fresh);
  double max_diff = 0.0;
  for (std::size_t i = 0;
       i < std::min(fresh.node_voltage.size(), eco.node_voltage.size()); ++i)
    max_diff = std::max(max_diff,
                        std::fabs(fresh.node_voltage[i] - eco.node_voltage[i]));
  std::printf("ECO probe: residual recomputed %.6e, reported %.6e (cold "
              "re-solve %.6e, %.6e; tolerance %.0e), max |dV| %.3e V\n",
              eco_residual, eco.cg_residual, fresh_residual, fresh.cg_residual,
              tol, max_diff);
  report.check(solved(fresh), "cold re-solve of the ECO revision failed");
  report.check(eco_residual <= tol, "ECO residual above tolerance");
  report.check(fresh_residual <= tol, "cold residual above tolerance");
  report.check(fresh.node_voltage.size() == eco.node_voltage.size() &&
                   max_diff <= 1e-6 * circuit.vdd(),
               "ECO re-solve disagrees with a cold solve of the same revision");
}

bool TimedProvider::next(data::Batch& out) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_.next(out);
  const Clock::time_point t1 = Clock::now();
  if (ok) {
    wait_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (have_last_)
      step_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - last_return_).count());
    last_return_ = t1;
    have_last_ = true;
  }
  return ok;
}

void report_loader_layers(Report& report, const TimedProvider& timed,
                          double fit_seconds, std::size_t samples) {
  const double hits = static_cast<double>(
      obs::counter("lmmir_train_prefetch_hits_total").value());
  const double stalls = static_cast<double>(
      obs::counter("lmmir_train_prefetch_stalls_total").value());
  const std::string n = "n=" + std::to_string(timed.wait_ms.size());
  report.metric("data.loader_wait_ms", median(timed.wait_ms), "ms", n);
  report.metric("data.prefetch_hit_ratio", ratio(hits, hits + stalls), "ratio");
  const std::size_t steps = timed.wait_ms.size();
  report.metric("train.step_ms",
                ratio(fit_seconds * 1e3, static_cast<double>(steps)), "ms",
                "steps=" + std::to_string(steps));
  report.metric("train.samples_per_s",
                ratio(static_cast<double>(samples), fit_seconds), "samples/s");
}

void probe_train_layers(const std::string& text, const Args& args,
                        Report& report) {
  const std::string dir = args.out_dir + "/probe-corpus";
  const spice::Netlist nl = spice::parse_netlist_string(text);
  std::filesystem::remove_all(dir);
  {
    data::ShardCorpusWriter writer(dir);
    writer.append(data::make_sample(nl, "probe", shipped_sample_options()), 4);
    writer.finalize();
  }
  core::PipelineOptions opts = core::PipelineOptions::from_environment();
  opts.train.pretrain_epochs = 1;
  opts.train.finetune_epochs = 1;
  core::Pipeline pipe(opts);
  auto loader = pipe.make_streaming_loader(dir);
  TimedProvider timed(*loader);
  auto model = make_model();
  obs::MetricsRegistry::instance().reset();
  const train::TrainHistory hist = train::fit(*model, timed, opts.train);
  report_loader_layers(report, timed, hist.seconds,
                       2 * loader->epoch_size());
  std::filesystem::remove_all(dir);
}

void probe_layers(const std::string& text, models::IrModel& model,
                  const Args& args, Report& report) {
  const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  constexpr int kReps = 3;
  constexpr std::size_t kM = 32, kK = 72, kN = 1024;  // LMM-IR GEMM shape
  constexpr int kGemmReps = 20;
  const data::SampleOptions sopts = shipped_sample_options();

  util::Rng rng(7);
  const tensor::Tensor ga = tensor::Tensor::randn({kM, kK}, rng);
  const tensor::Tensor gb = tensor::Tensor::randn({kK, kN}, rng);
  auto trainee = make_model();
  nn::Adam opt(trainee->parameters(), core::PipelineOptions{}.train.lr);

  std::size_t elements = 0, points = 0, pcg_iterations = 0, spmv_bytes = 0;
  obs::set_trace_enabled(true);
  for (int rep = 0; rep < kReps; ++rep) {
    obs::Span request("bench.request", 0);  // spans of one probe share this id
    spice::Netlist nl;
    {
      obs::Span s("bench.spice.parse");
      nl = spice::parse_netlist_string(text);
    }
    elements = nl.element_count();
    {
      obs::Span s("bench.features.classify");
      feat::classify_netlist(nl);
    }
    {
      feat::FeatureContext ctx;
      {
        obs::Span s("bench.features.extract_cold");
        ctx.extract(nl);
      }
      spice::Netlist revision = nl;
      apply_edits(revision, load_sweep_edits(nl, 1.05));
      obs::Span s("bench.features.extract_warm");
      ctx.extract(revision);
    }
    {
      obs::Span s("bench.pointcloud.encode_pool");
      const pc::Cloud cloud = pc::cloud_from_netlist(nl);
      pc::grid_pool(cloud, sopts.pc_grid);
      points = cloud.points.size();
    }
    data::FeaturizedNetlist f;
    {
      obs::Span s("bench.data.featurize");
      f = data::featurize_netlist(nl, sopts);
    }
    {
      auto [c1, t1] = repeat_batch(f, 1, model.in_channels());
      auto [c4, t4] = repeat_batch(f, 4, model.in_channels());
      {
        obs::Span s("bench.models.forward_b1");
        model.predict(c1, t1);
      }
      obs::Span s("bench.models.forward_b4");
      model.predict(c4, t4);
    }
    {
      tensor::NoGradGuard no_grad;
      obs::Span s("bench.tensor.gemm");
      for (int i = 0; i < kGemmReps; ++i) tensor::matmul(ga, gb);
    }
    {
      trainee->set_training(true);
      auto [circuit, tokens] = repeat_batch(f, 2, trainee->in_channels());
      const tensor::Tensor target = data::slice_channels(circuit, 1);
      {
        obs::Span s("bench.train.forward_backward");
        opt.zero_grad();
        tensor::mse_loss(trainee->forward(circuit, tokens), target).backward();
      }
      obs::Span s("bench.train.optimizer");
      nn::clip_grad_norm(opt.params(), core::PipelineOptions{}.train.clip_norm);
      opt.step();
    }
    if (rep > 0) continue;  // one golden solve: the largest probe by far
    std::optional<pdn::Circuit> circuit;
    {
      obs::Span s("bench.pdn.circuit");
      circuit.emplace(nl);
    }
    pdn::AssembledSystem sys;
    {
      obs::Span s("bench.pdn.assemble");
      sys = pdn::assemble_ir_system(*circuit);
    }
    const sparse::CgOptions cg_opts;
    std::unique_ptr<sparse::Preconditioner> pre;
    {
      obs::Span s("bench.sparse.precond_setup");
      pre = sparse::make_preconditioner(cg_opts.preconditioner, sys.matrix);
    }
    sparse::CgResult cg;
    {
      obs::Span s("bench.sparse.pcg");
      cg = sparse::conjugate_gradient(sys.matrix, sys.rhs, cg_opts, pre.get());
    }
    if (!cg.converged || cg.breakdown) report.error("layer probe: PCG failed");
    pcg_iterations = cg.iterations;
    // Bytes one CSR SpMV streams: values + column indices, row offsets,
    // the gathered x and the written y (computed from the shapes).
    const std::size_t n = sys.matrix.dim(), nnz = sys.matrix.nnz();
    spmv_bytes = nnz * (sizeof(double) + sizeof(std::size_t)) +
                 (n + 1) * sizeof(std::size_t) + 2 * n * sizeof(double);
  }
  obs::set_trace_enabled(false);
  if (!obs::write_trace(trace_path)) {
    report.error("cannot write trace " + trace_path);
    return;
  }
  const auto spans = trace_span_ms(trace_path);
  auto span_ms = [&](const std::string& name) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.empty()) {
      report.error("trace has no span bench." + name);
      return 0.0;
    }
    return median(it->second);
  };
  const double parse_ms = span_ms("spice.parse");
  report.metric("spice.parse_ms", parse_ms, "ms");
  report.metric("spice.parse_mb_per_s",
                ratio(static_cast<double>(text.size()) / 1e6, parse_ms / 1e3),
                "MB/s");
  report.metric("spice.elements", static_cast<double>(elements), "count");
  report.metric("features.classify_ms", span_ms("features.classify"), "ms");
  report.metric("features.extract_cold_ms", span_ms("features.extract_cold"),
                "ms");
  report.metric("features.extract_warm_ms", span_ms("features.extract_warm"),
                "ms");
  report.metric("pointcloud.encode_pool_ms", span_ms("pointcloud.encode_pool"),
                "ms");
  report.metric("pointcloud.points", static_cast<double>(points), "count");
  report.metric("data.featurize_ms", span_ms("data.featurize"), "ms");
  report.metric("models.forward_b1_ms", span_ms("models.forward_b1"), "ms");
  report.metric("models.forward_b4_ms", span_ms("models.forward_b4"), "ms");
  const double gemm_flops = 2.0 * kM * kK * kN;
  report.metric("tensor.gemm_gflops",
                ratio(gemm_flops * kGemmReps / 1e9, span_ms("tensor.gemm") / 1e3),
                "GFLOP/s", "computed from shape");
  report.metric("tensor.gemm_flops_per_byte",
                gemm_flops / (sizeof(float) * (kM * kK + kK * kN + kM * kN)),
                "FLOP/B", "computed from shape");
  report.metric("train.forward_backward_ms",
                span_ms("train.forward_backward"), "ms");
  report.metric("train.optimizer_ms", span_ms("train.optimizer"), "ms");
  report.metric("pdn.circuit_ms", span_ms("pdn.circuit"), "ms");
  report.metric("pdn.assemble_ms", span_ms("pdn.assemble"), "ms");
  report.metric("sparse.precond_setup_ms", span_ms("sparse.precond_setup"),
                "ms");
  const double pcg_ms = span_ms("sparse.pcg");
  report.metric("sparse.pcg_ms", pcg_ms, "ms");
  report.metric("sparse.pcg_iterations", static_cast<double>(pcg_iterations),
                "count");
  report.metric("sparse.spmv_gb_per_s",
                ratio(static_cast<double>(pcg_iterations * spmv_bytes) / 1e9,
                      pcg_ms / 1e3),
                "GB/s", "computed from nnz and dim");
}

}  // namespace perfbench
