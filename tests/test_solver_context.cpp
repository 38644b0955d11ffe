// SolverContext: the repeated-solve reuse cache.  Pattern refresh must
// agree with from-scratch assembly, warm starts must never cost more
// iterations than cold starts, topology changes must fall back to a full
// rebuild, and the level-scheduled triangular applies must stay
// bitwise-identical across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gen/began.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/trisolve.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;

gen::GeneratorConfig mesh_config(std::uint64_t seed, double current = 0.12) {
  gen::GeneratorConfig cfg;
  cfg.name = "ctx";
  cfg.width_um = 30;
  cfg.height_um = 30;
  cfg.seed = seed;
  cfg.total_current = current;
  cfg.use_default_stack();
  return cfg;
}

/// Scale every resistor by `factor` starting at element `from`, stepping
/// `stride` — a value-only perturbation that keeps the topology intact.
void perturb_resistors(spice::Netlist& nl, double factor,
                       std::size_t from = 0, std::size_t stride = 3) {
  const auto& elements = nl.elements();
  for (std::size_t i = from; i < elements.size(); i += stride)
    if (elements[i].type == spice::ElementType::Resistor)
      nl.set_element_value(i, elements[i].value * factor);
}

TEST(SolverContext, FirstSolveMatchesFromScratch) {
  const auto nl = gen::generate_pdn(mesh_config(21));
  const pdn::Circuit circuit(nl);
  const auto scratch = pdn::solve_ir_drop(circuit);

  pdn::SolverContext ctx;
  const auto sol = ctx.solve(circuit);
  ASSERT_TRUE(sol.converged);
  EXPECT_FALSE(sol.reused_pattern);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(ctx.stats().rebuilds, 1u);
  ASSERT_EQ(sol.node_voltage.size(), scratch.node_voltage.size());
  // Same assembly, same zero start: the solves are identical.
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i)
    EXPECT_EQ(sol.node_voltage[i], scratch.node_voltage[i]);
}

TEST(SolverContext, RefreshAgreesWithFromScratchTo1e10) {
  auto nl = gen::generate_pdn(mesh_config(22));
  pdn::SolveOptions opts;
  opts.cg.tolerance = 1e-12;  // headroom so iterates agree to 1e-10
  pdn::SolverContext ctx(opts);
  ctx.solve(pdn::Circuit(nl));

  perturb_resistors(nl, 0.7);
  const pdn::Circuit changed(nl);
  const auto refreshed = ctx.solve(changed);
  const auto scratch = pdn::solve_ir_drop(changed, opts);

  ASSERT_TRUE(refreshed.converged);
  EXPECT_TRUE(refreshed.reused_pattern);
  EXPECT_EQ(ctx.stats().rebuilds, 1u);
  EXPECT_EQ(ctx.stats().refreshes, 1u);
  ASSERT_EQ(refreshed.node_voltage.size(), scratch.node_voltage.size());
  for (std::size_t i = 0; i < refreshed.node_voltage.size(); ++i)
    ASSERT_NEAR(refreshed.node_voltage[i], scratch.node_voltage[i], 1e-10)
        << "node " << i;
}

TEST(SolverContext, CurrentOnlyChangeRefreshesRhs) {
  auto nl = gen::generate_pdn(mesh_config(23));
  pdn::SolveOptions opts;
  opts.cg.tolerance = 1e-12;
  pdn::SolverContext ctx(opts);
  ctx.solve(pdn::Circuit(nl));

  const auto& elements = nl.elements();
  for (std::size_t i = 0; i < elements.size(); ++i)
    if (elements[i].type == spice::ElementType::CurrentSource)
      nl.set_element_value(i, elements[i].value * 1.35);
  const pdn::Circuit changed(nl);
  const auto refreshed = ctx.solve(changed);
  const auto scratch = pdn::solve_ir_drop(changed, opts);

  EXPECT_TRUE(refreshed.reused_pattern);
  ASSERT_TRUE(refreshed.converged);
  for (std::size_t i = 0; i < refreshed.node_voltage.size(); ++i)
    ASSERT_NEAR(refreshed.node_voltage[i], scratch.node_voltage[i], 1e-10);
}

TEST(SolverContext, WarmStartNeverCostsMoreIterations) {
  for (const auto kind :
       {sparse::PreconditionerKind::Jacobi, sparse::PreconditionerKind::Ic0}) {
    auto nl = gen::generate_pdn(mesh_config(24));
    pdn::SolveOptions opts;
    opts.cg.preconditioner = kind;
    pdn::SolverContext ctx(opts);
    ctx.solve(pdn::Circuit(nl));

    perturb_resistors(nl, 0.85, 1, 4);  // mild ECO-style perturbation
    const pdn::Circuit changed(nl);
    const auto cold = pdn::solve_ir_drop(changed, opts);
    const auto warm = ctx.solve(changed);
    ASSERT_TRUE(cold.converged) << sparse::to_string(kind);
    ASSERT_TRUE(warm.converged) << sparse::to_string(kind);
    EXPECT_TRUE(warm.warm_started) << sparse::to_string(kind);
    EXPECT_LT(warm.initial_residual, 1.0) << sparse::to_string(kind);
    EXPECT_LE(warm.cg_iterations, cold.cg_iterations)
        << sparse::to_string(kind);
  }
}

TEST(SolverContext, IdenticalResolveConvergesInZeroIterations) {
  const auto nl = gen::generate_pdn(mesh_config(25));
  const pdn::Circuit circuit(nl);
  pdn::SolverContext ctx;
  ctx.solve(circuit);
  const auto again = ctx.solve(circuit);  // same values: x0 already solves it
  ASSERT_TRUE(again.converged);
  EXPECT_TRUE(again.warm_started);
  EXPECT_EQ(again.cg_iterations, 0u);
}

/// Scale every current source by `factor`: an rhs-only perturbation (a
/// load sweep) that leaves the conductance matrix untouched.
void perturb_currents(spice::Netlist& nl, double factor) {
  const auto& elements = nl.elements();
  for (std::size_t i = 0; i < elements.size(); ++i)
    if (elements[i].type == spice::ElementType::CurrentSource)
      nl.set_element_value(i, elements[i].value * factor);
}

TEST(SolverContext, Ic0SetupAmortizedAcrossLoadSweep) {
  auto nl = gen::generate_pdn(mesh_config(26));
  pdn::SolveOptions opts;
  opts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
  pdn::SolverContext ctx(opts);
  ctx.solve(pdn::Circuit(nl));
  for (int round = 0; round < 3; ++round) {
    perturb_currents(nl, 1.1);
    const auto sol = ctx.solve(pdn::Circuit(nl));
    ASSERT_TRUE(sol.converged);
  }
  EXPECT_EQ(ctx.stats().solves, 4u);
  EXPECT_EQ(ctx.stats().refreshes, 3u);
  EXPECT_EQ(ctx.stats().matrix_refreshes, 0u);  // rhs-only updates
  EXPECT_EQ(ctx.stats().precond_builds, 1u);    // factored once, reused 3x

  // Opting out rebuilds the factor every solve.
  pdn::SolveOptions fresh = opts;
  fresh.reuse_preconditioner = false;
  pdn::SolverContext ctx2(fresh);
  ctx2.solve(pdn::Circuit(nl));
  perturb_currents(nl, 1.1);
  ctx2.solve(pdn::Circuit(nl));
  EXPECT_EQ(ctx2.stats().precond_builds, 2u);
}

TEST(SolverContext, ConductanceChangeRebuildsPreconditioner) {
  // A stale factor is never carried across a matrix change (measured to
  // cost more PCG iterations than its setup saves).
  auto nl = gen::generate_pdn(mesh_config(26));
  pdn::SolveOptions opts;
  opts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
  pdn::SolverContext ctx(opts);
  ctx.solve(pdn::Circuit(nl));
  perturb_resistors(nl, 0.9);
  ctx.solve(pdn::Circuit(nl));
  EXPECT_EQ(ctx.stats().matrix_refreshes, 1u);
  EXPECT_EQ(ctx.stats().precond_builds, 2u);
}

TEST(SolverContext, TopologyChangeTriggersRebuild) {
  auto nl = gen::generate_pdn(mesh_config(27));
  pdn::SolverContext ctx;
  ctx.solve(pdn::Circuit(nl));

  // Bridge two existing nodes with a new strap: the pattern changes.
  nl.add_resistor("ctxbridge", 1, 2, 0.5);
  const pdn::Circuit changed(nl);
  const auto sol = ctx.solve(changed);
  const auto scratch = pdn::solve_ir_drop(changed);
  ASSERT_TRUE(sol.converged);
  EXPECT_FALSE(sol.reused_pattern);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(ctx.stats().rebuilds, 2u);
  EXPECT_EQ(ctx.stats().refreshes, 0u);
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i)
    EXPECT_EQ(sol.node_voltage[i], scratch.node_voltage[i]);
}

TEST(SolverContext, InvalidateDropsCaches) {
  auto nl = gen::generate_pdn(mesh_config(28));
  pdn::SolverContext ctx;
  ctx.solve(pdn::Circuit(nl));
  ctx.invalidate();
  const auto sol = ctx.solve(pdn::Circuit(nl));
  EXPECT_FALSE(sol.reused_pattern);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(ctx.stats().rebuilds, 2u);
}

TEST(SolverContext, RoutedThroughSolveIrDropOptions) {
  auto nl = gen::generate_pdn(mesh_config(29));
  pdn::SolverContext ctx;
  pdn::SolveOptions opts;
  opts.context = &ctx;
  pdn::solve_ir_drop(pdn::Circuit(nl), opts);
  perturb_resistors(nl, 0.8);
  const auto sol = pdn::solve_ir_drop(pdn::Circuit(nl), opts);
  EXPECT_TRUE(sol.reused_pattern);
  EXPECT_TRUE(sol.warm_started);
  EXPECT_EQ(ctx.stats().solves, 2u);
}

/// Restores the global pool even when an ASSERT bails out early.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_global_threads(1); }
};

// The level-scheduled IC(0) apply must be bitwise-identical to the
// 1-thread sweep at 2 and 4 threads.
TEST(LevelScheduledApply, BitwiseIdenticalAcross124Threads) {
  const auto nl = gen::generate_pdn(mesh_config(30));
  const auto sys = pdn::assemble_ir_system(pdn::Circuit(nl));
  util::Rng rng(99);
  std::vector<double> r(sys.matrix.dim());
  for (auto& v : r) v = rng.uniform_double(-1.0, 1.0);

  ThreadGuard guard;
  const auto p =
      sparse::make_preconditioner(sparse::PreconditionerKind::Ic0, sys.matrix);
  runtime::set_global_threads(1);
  std::vector<double> z1;
  p->apply(r, z1);
  for (const std::size_t threads : {2u, 4u}) {
    runtime::set_global_threads(threads);
    std::vector<double> zt;
    p->apply(r, zt);
    ASSERT_EQ(z1.size(), zt.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
      ASSERT_EQ(z1[i], zt[i]) << "@" << threads << " threads, row "
                              << i;  // exact, not NEAR
  }
}

// Full context solves (refresh + warm start + level-scheduled applies)
// stay bitwise-identical across thread counts as well.
TEST(LevelScheduledApply, ContextSolveBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::vector<double>> voltages;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    runtime::set_global_threads(threads);
    auto nl = gen::generate_pdn(mesh_config(31));
    pdn::SolveOptions opts;
    opts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
    pdn::SolverContext ctx(opts);
    ctx.solve(pdn::Circuit(nl));
    perturb_resistors(nl, 0.75);
    voltages.push_back(ctx.solve(pdn::Circuit(nl)).node_voltage);
  }
  runtime::set_global_threads(1);
  for (std::size_t t = 1; t < voltages.size(); ++t) {
    ASSERT_EQ(voltages[0].size(), voltages[t].size());
    for (std::size_t i = 0; i < voltages[0].size(); ++i)
      ASSERT_EQ(voltages[0][i], voltages[t][i]) << "cfg " << t << " row " << i;
  }
}

// ---- solve_ir_drop_batch: per-worker contexts for corpus generation ----

std::vector<spice::Netlist> batch_netlists(int count) {
  std::vector<spice::Netlist> nls;
  for (int i = 0; i < count; ++i) {
    // Repeat each topology seed twice back-to-back so contiguous stripes
    // exercise the refresh + warm-start chain, not just cold rebuilds.
    auto cfg = mesh_config(40 + static_cast<std::uint64_t>(i / 2),
                           0.10 + 0.01 * (i % 2));
    nls.push_back(gen::generate_pdn(cfg));
  }
  return nls;
}

std::vector<pdn::Solution> batch_solve(const std::vector<spice::Netlist>& nls,
                                       std::size_t stripes,
                                       pdn::SolverContextStats* stats) {
  std::vector<pdn::Circuit> circuits;
  circuits.reserve(nls.size());
  for (const auto& nl : nls) circuits.emplace_back(nl);
  std::vector<const pdn::Circuit*> ptrs;
  for (const auto& c : circuits) ptrs.push_back(&c);
  pdn::SolveOptions opts;
  opts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
  return pdn::solve_ir_drop_batch(ptrs, opts, stripes, stats);
}

// The corpus-generation fast path: per-worker contexts fanned over the
// pool must reproduce the serial (1-thread) run bitwise, because the
// stripe partition — and therefore every context's reuse chain — depends
// only on the case count.
TEST(SolverBatch, PerWorkerContextsMatchSerialGoldenBitwise) {
  const auto nls = batch_netlists(6);
  ThreadGuard guard;

  runtime::set_global_threads(1);
  pdn::SolverContextStats serial_stats;
  const auto serial = batch_solve(nls, 3, &serial_stats);

  runtime::set_global_threads(4);
  pdn::SolverContextStats parallel_stats;
  const auto parallel = batch_solve(nls, 3, &parallel_stats);
  runtime::set_global_threads(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].converged) << "case " << i;
    ASSERT_TRUE(parallel[i].converged) << "case " << i;
    ASSERT_EQ(serial[i].node_voltage.size(), parallel[i].node_voltage.size());
    for (std::size_t k = 0; k < serial[i].node_voltage.size(); ++k)
      ASSERT_EQ(serial[i].node_voltage[k], parallel[i].node_voltage[k])
          << "case " << i << " node " << k;
  }
  // Same chains, same telemetry.
  EXPECT_EQ(serial_stats.solves, parallel_stats.solves);
  EXPECT_EQ(serial_stats.rebuilds, parallel_stats.rebuilds);
  EXPECT_EQ(serial_stats.refreshes, parallel_stats.refreshes);
  EXPECT_EQ(serial_stats.warm_starts, parallel_stats.warm_starts);
  EXPECT_EQ(serial_stats.total_cg_iterations,
            parallel_stats.total_cg_iterations);
}

// Striped contexts agree with independent cold solves to solver
// tolerance (warm starts change the iterate path, not the answer).
TEST(SolverBatch, StripedResultsAgreeWithColdSolves) {
  const auto nls = batch_netlists(4);
  pdn::SolverContextStats stats;
  const auto striped = batch_solve(nls, 2, &stats);
  ASSERT_EQ(striped.size(), nls.size());
  EXPECT_EQ(stats.solves, nls.size());
  // The seed-repeat pairing above means at least one refresh happened.
  EXPECT_GT(stats.refreshes, 0u);

  pdn::SolveOptions opts;
  opts.cg.preconditioner = sparse::PreconditionerKind::Ic0;
  for (std::size_t i = 0; i < nls.size(); ++i) {
    const auto cold = pdn::solve_ir_drop(pdn::Circuit(nls[i]), opts);
    ASSERT_EQ(cold.node_voltage.size(), striped[i].node_voltage.size());
    for (std::size_t k = 0; k < cold.node_voltage.size(); ++k)
      EXPECT_NEAR(cold.node_voltage[k], striped[i].node_voltage[k], 1e-6)
          << "case " << i << " node " << k;
  }
}

TEST(SolverBatch, EmptyAndSingleCaseEdgeCases) {
  EXPECT_TRUE(pdn::solve_ir_drop_batch({}, pdn::SolveOptions{}).empty());

  const auto nl = gen::generate_pdn(mesh_config(55));
  const pdn::Circuit circuit(nl);
  // More stripes than cases clamps to one case per stripe.
  const auto batch =
      pdn::solve_ir_drop_batch({&circuit}, pdn::SolveOptions{}, 8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].converged);
  const auto direct = pdn::solve_ir_drop(circuit);
  for (std::size_t k = 0; k < direct.node_voltage.size(); ++k)
    ASSERT_EQ(direct.node_voltage[k], batch[0].node_voltage[k]);
}

}  // namespace
