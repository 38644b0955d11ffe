#include "pdn/solver_context.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/stopwatch.hpp"

namespace lmmir::pdn {

using spice::ElementType;
using spice::kGroundNode;
using spice::NodeId;

namespace {

/// Registry view of the SolverContext reuse machinery, aggregated across
/// every context in the process (the per-context SolverContextStats stay
/// the per-instance view).
struct SolverMetrics {
  obs::Counter& solves = obs::counter("lmmir_solver_ctx_solves_total");
  obs::Counter& rebuilds = obs::counter("lmmir_solver_ctx_rebuilds_total");
  obs::Counter& refreshes = obs::counter("lmmir_solver_ctx_refreshes_total");
  obs::Counter& matrix_refreshes =
      obs::counter("lmmir_solver_ctx_matrix_refreshes_total");
  obs::Counter& precond_reuses =
      obs::counter("lmmir_solver_ctx_precond_reuses_total");
  obs::Counter& precond_builds =
      obs::counter("lmmir_solver_ctx_precond_builds_total");

  static SolverMetrics& get() {
    static SolverMetrics m;
    return m;
  }
};

}  // namespace

Solution SolverContext::solve(const Circuit& circuit,
                              const SolveOptions& opts) {
  obs::Span span("solver.solve");
  ++stats_.solves;
  SolverMetrics::get().solves.add();
  const bool reuse = cached_ && topology_matches(circuit);
  if (reuse)
    refresh(circuit);
  else
    rebuild(circuit);

  const auto kind = opts.cg.preconditioner;
  // Reuse the built preconditioner exactly when it still describes THIS
  // matrix (version match: identical re-solves and rhs-only refreshes).
  // After a conductance change a stale factor would stay SPD — PCG would
  // still be correct — but measurement showed the extra iterations cost
  // more than the setup it saves, so staleness is never carried.
  const bool keep_precond = reuse && opts.reuse_preconditioner && precond_ &&
                            precond_->kind() == kind &&
                            precond_version_ == matrix_version_;
  double setup_seconds = 0.0;
  if (keep_precond) {
    SolverMetrics::get().precond_reuses.add();
  } else {
    util::Stopwatch setup_watch;
    precond_ = sparse::make_preconditioner(kind, sys_.matrix);
    setup_seconds = setup_watch.seconds();
    ++stats_.precond_builds;
    SolverMetrics::get().precond_builds.add();
    precond_version_ = matrix_version_;
    stats_.precond_setup_seconds += setup_seconds;
  }

  const std::vector<double>* x0 = nullptr;
  if (reuse && opts.warm_start && last_x_.size() == sys_.matrix.dim())
    x0 = &last_x_;

  auto cg = sparse::conjugate_gradient(sys_.matrix, sys_.rhs, opts.cg,
                                       precond_.get(), x0);
  if (cg.warm_started) ++stats_.warm_starts;
  stats_.total_cg_iterations += cg.iterations;
  last_x_ = cg.x;
  // The injected-preconditioner path reports zero setup; attribute the
  // build this solve actually paid for (zero when the factor was reused).
  cg.precond_setup_seconds = setup_seconds;

  Solution sol = detail::finish_solution(circuit, sys_, std::move(cg));
  sol.reused_pattern = reuse;
  return sol;
}

bool SolverContext::topology_matches(const Circuit& circuit) const {
  const auto& nl = circuit.netlist();
  if (nl.node_count() != node_count_) return false;
  const auto& elements = nl.elements();
  if (elements.size() != topo_.size()) return false;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const auto& e = elements[i];
    const auto& t = topo_[i];
    if (e.type != t.type || e.node1 != t.node1 || e.node2 != t.node2)
      return false;
  }
  return true;
}

void SolverContext::rebuild(const Circuit& circuit) {
  obs::Span span("solver.rebuild");
  SolverMetrics::get().rebuilds.add();
  util::Stopwatch watch;
  sys_ = assemble_ir_system(circuit);  // throws when unsolvable

  const auto& nl = circuit.netlist();
  node_count_ = nl.node_count();
  topo_.clear();
  topo_.reserve(nl.element_count());
  element_values_.clear();
  element_values_.reserve(nl.element_count());
  for (const auto& e : nl.elements()) {
    topo_.push_back({e.type, e.node1, e.node2});
    element_values_.push_back(e.value);
  }
  build_stamp_plan(circuit);

  ++matrix_version_;
  precond_.reset();
  last_x_.clear();
  cached_ = true;
  stats_.assemble_seconds += watch.seconds();
  ++stats_.rebuilds;
}

void SolverContext::build_stamp_plan(const Circuit& circuit) {
  g_stamps_.clear();
  pin_stamps_.clear();
  i_stamps_.clear();

  auto slot_of = [&](std::ptrdiff_t row, std::ptrdiff_t col) {
    const std::size_t k = sys_.matrix.find_entry(static_cast<std::size_t>(row),
                                                 static_cast<std::size_t>(col));
    if (k == sparse::CsrMatrix::npos)
      throw std::logic_error(
          "SolverContext: stamp slot missing from assembled pattern");
    return k;
  };
  auto unknown = [&](NodeId id) {
    return id == kGroundNode ? -1
                             : sys_.unknown_of[static_cast<std::size_t>(id)];
  };

  const auto& elements = circuit.netlist().elements();
  for (std::size_t ei = 0; ei < elements.size(); ++ei) {
    const auto& e = elements[ei];
    switch (e.type) {
      case ElementType::Resistor: {
        const std::ptrdiff_t ua = unknown(e.node1);
        const std::ptrdiff_t ub = unknown(e.node2);
        const bool a_pinned =
            e.node1 != kGroundNode && circuit.is_pinned(e.node1);
        const bool b_pinned =
            e.node2 != kGroundNode && circuit.is_pinned(e.node2);
        if (ua >= 0) {
          g_stamps_.push_back({slot_of(ua, ua), ei, 1.0});
          if (ub >= 0)
            g_stamps_.push_back({slot_of(ua, ub), ei, -1.0});
          else if (b_pinned)
            pin_stamps_.push_back(
                {static_cast<std::size_t>(ua), ei, e.node2});
        }
        if (ub >= 0) {
          g_stamps_.push_back({slot_of(ub, ub), ei, 1.0});
          if (ua >= 0)
            g_stamps_.push_back({slot_of(ub, ua), ei, -1.0});
          else if (a_pinned)
            pin_stamps_.push_back(
                {static_cast<std::size_t>(ub), ei, e.node1});
        }
        break;
      }
      case ElementType::CurrentSource: {
        // SPICE convention (see assemble_ir_system): e.value flows from
        // node1 through the source to node2.
        const std::ptrdiff_t uf = unknown(e.node1);
        const std::ptrdiff_t ut = unknown(e.node2);
        if (uf >= 0)
          i_stamps_.push_back({static_cast<std::size_t>(uf), ei, -1.0});
        if (ut >= 0)
          i_stamps_.push_back({static_cast<std::size_t>(ut), ei, 1.0});
        break;
      }
      case ElementType::VoltageSource:
        break;  // realized as Dirichlet pins by Circuit
    }
  }
}

void SolverContext::refresh(const Circuit& circuit) {
  obs::Span span("solver.refresh");
  SolverMetrics::get().refreshes.add();
  util::Stopwatch watch;
  const auto& elements = circuit.netlist().elements();
  // The matrix depends on resistor values only; a refresh that moved just
  // current/voltage sources (a load sweep) keeps the values — and the
  // preconditioner built for them — exactly valid.
  bool matrix_changed = false;
  for (std::size_t i = 0; i < elements.size(); ++i)
    if (topo_[i].type == ElementType::Resistor &&
        elements[i].value != element_values_[i]) {
      matrix_changed = true;
      break;
    }
  for (std::size_t i = 0; i < elements.size(); ++i)
    element_values_[i] = elements[i].value;

  // Fixed element order: the refresh is bitwise reproducible run-to-run
  // (summation order differs from the sorted COO assembly, so refreshed
  // and from-scratch VALUES may differ in the last ulp — solutions agree
  // to solver tolerance).
  if (matrix_changed) {
    auto& vals = sys_.matrix.values_mut();
    std::fill(vals.begin(), vals.end(), 0.0);
    for (const auto& s : g_stamps_)
      vals[s.slot] += s.sign / elements[s.element].value;
    ++matrix_version_;
    ++stats_.matrix_refreshes;
    SolverMetrics::get().matrix_refreshes.add();
  }
  std::fill(sys_.rhs.begin(), sys_.rhs.end(), 0.0);
  for (const auto& s : pin_stamps_)
    sys_.rhs[s.row] +=
        circuit.pinned_voltage(s.pinned_node) / elements[s.element].value;
  for (const auto& s : i_stamps_)
    sys_.rhs[s.row] += s.sign * elements[s.element].value;
  stats_.refresh_seconds += watch.seconds();
  ++stats_.refreshes;
}

std::vector<Solution> solve_ir_drop_batch(
    const std::vector<const Circuit*>& circuits, const SolveOptions& opts,
    std::size_t stripes, SolverContextStats* aggregate) {
  const std::size_t n = circuits.size();
  std::vector<Solution> out(n);
  if (n == 0) return out;
  if (stripes == 0) stripes = 1;
  stripes = std::min(stripes, n);

  SolveOptions stripe_opts = opts;
  stripe_opts.context = nullptr;  // each stripe owns its context

  std::mutex agg_mu;
  // Contiguous blocks keep consecutive same-topology cases in one
  // context's reuse chain; the partition depends only on (n, stripes),
  // so any thread count replays the same chains bitwise.
  auto run_stripe = [&](std::size_t s) {
    const std::size_t begin = s * n / stripes;
    const std::size_t end = (s + 1) * n / stripes;
    SolverContext ctx;
    for (std::size_t i = begin; i < end; ++i)
      out[i] = ctx.solve(*circuits[i], stripe_opts);
    if (aggregate) {
      std::lock_guard<std::mutex> lock(agg_mu);
      *aggregate += ctx.stats();
    }
  };

  runtime::ThreadPool* pool = runtime::global_pool();
  if (!pool || pool->in_worker()) {
    for (std::size_t s = 0; s < stripes; ++s) run_stripe(s);
    return out;
  }
  // Every stripe runs as a posted job: on workers the nested solver
  // kernels run inline (no nested parallelism), so no stripe ever blocks
  // on pool latches behind another stripe's whole solve — which is what
  // would happen if the caller ran a stripe itself and its inner
  // parallel_for queued chunks behind the busy workers.
  std::vector<std::future<void>> futures;
  futures.reserve(stripes);
  for (std::size_t s = 0; s < stripes; ++s)
    futures.push_back(pool->submit([&run_stripe, s] { run_stripe(s); }));
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

void SolverContext::invalidate() {
  cached_ = false;
  sys_ = {};
  topo_.clear();
  element_values_.clear();
  g_stamps_.clear();
  pin_stamps_.clear();
  i_stamps_.clear();
  precond_.reset();
  last_x_.clear();
  node_count_ = 0;
}

}  // namespace lmmir::pdn
