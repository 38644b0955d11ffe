// Golden regression for the ground-truth solver.  The entire training
// corpus is produced by pdn::solve_ir_drop, so a solver refactor that
// shifts its output silently rewrites every experiment's ground truth.
// This harness pins the solved Table-II suite (fixed seeds, scale 0.05)
// to checked-in golden values: reduced-system size (exact), worst drop,
// and two per-node ir_drop checksums (plain sum and an index-weighted sum
// that catches node permutations).
//
// Tolerances are relative ~2e-6: loose enough to absorb FMA-contraction
// differences between -O0/-O2 builds and legitimate solver-tolerance
// noise (PCG converges to 1e-10), tight enough that any real change to
// stamping, generation, or convergence trips the harness.
//
// To regenerate after an INTENDED ground-truth change:
//   LMMIR_PRINT_GOLDEN=1 ./lmmir_tests --gtest_filter='SolverGolden*'
// and paste the emitted table below (document why in the commit).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "gen/began.hpp"
#include "gen/suite.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"

namespace {

using namespace lmmir;

struct Golden {
  const char* name;
  std::size_t unknowns;
  double worst_drop;
  double drop_sum;       // Σ ir_drop[i]
  double weighted_sum;   // Σ (i+1)·ir_drop[i], permutation-sensitive
};

// Generated with LMMIR_PRINT_GOLDEN=1 (libstdc++ distributions; suite
// seeds are fixed inside gen::table2_suite).
const Golden kGolden[] = {
    {"testcase7", 464u, 5.950926302858e-03, 1.887128636549e+00, 4.239716703399e+02},
    {"testcase8", 464u, 5.775670314946e-03, 1.857125107935e+00, 3.999994689300e+02},
    {"testcase9", 823u, 6.404996743614e-03, 2.975143625249e+00, 1.214800755080e+03},
    {"testcase10", 823u, 6.771827430586e-03, 2.987136514843e+00, 1.182266688476e+03},
    {"testcase13", 428u, 4.941794074635e-03, 1.065103726249e+00, 2.226918643034e+02},
    {"testcase14", 428u, 5.881772492959e-03, 1.028012231552e+00, 2.366600820983e+02},
    {"testcase15", 326u, 4.754233595460e-03, 9.950466234162e-01, 1.516987059262e+02},
    {"testcase16", 326u, 4.212057020627e-03, 1.002436678350e+00, 1.571185966286e+02},
    {"testcase19", 965u, 6.655757415598e-03, 3.479764588860e+00, 1.620001736501e+03},
    {"testcase20", 965u, 5.639765431664e-03, 3.465763744568e+00, 1.559726694562e+03},
};

TEST(SolverGolden, Table2SuiteMatchesCheckedInValues) {
  gen::SuiteOptions opts;
  opts.scale = 0.05;  // smallest sides the suite supports: fast + stable
  const auto configs = gen::table2_suite(opts);
  const bool print = std::getenv("LMMIR_PRINT_GOLDEN") != nullptr;

  std::vector<Golden> actual;
  for (const auto& cfg : configs) {
    const spice::Netlist nl = gen::generate_pdn(cfg);
    const auto sol = pdn::solve_ir_drop(pdn::Circuit(nl));
    ASSERT_TRUE(sol.converged) << cfg.name;
    Golden g{};
    g.unknowns = sol.unknowns;
    g.worst_drop = sol.worst_drop;
    for (std::size_t i = 0; i < sol.ir_drop.size(); ++i) {
      g.drop_sum += sol.ir_drop[i];
      g.weighted_sum += static_cast<double>(i + 1) * sol.ir_drop[i];
    }
    if (print)
      std::printf("    {\"%s\", %zuu, %.12e, %.12e, %.12e},\n",
                  cfg.name.c_str(), g.unknowns, g.worst_drop, g.drop_sum,
                  g.weighted_sum);
    actual.push_back(g);
  }
  if (print) GTEST_SKIP() << "golden table printed, comparison skipped";

  ASSERT_EQ(actual.size(), std::size(kGolden));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(kGolden[i].name);
    EXPECT_EQ(actual[i].unknowns, kGolden[i].unknowns);
    auto tol = [](double v) { return 2e-6 * std::abs(v) + 1e-12; };
    EXPECT_NEAR(actual[i].worst_drop, kGolden[i].worst_drop,
                tol(kGolden[i].worst_drop));
    EXPECT_NEAR(actual[i].drop_sum, kGolden[i].drop_sum,
                tol(kGolden[i].drop_sum));
    EXPECT_NEAR(actual[i].weighted_sum, kGolden[i].weighted_sum,
                tol(kGolden[i].weighted_sum));
  }
}

// The golden ground truth must not depend on the preconditioner choice:
// any kind reproduces the checked-in worst drop within solver tolerance.
TEST(SolverGolden, PreconditionerChoiceDoesNotChangeGroundTruth) {
  gen::SuiteOptions sopts;
  sopts.scale = 0.05;
  const auto cfg = gen::table2_suite(sopts).front();
  const spice::Netlist nl = gen::generate_pdn(cfg);
  const pdn::Circuit circuit(nl);
  const auto ref = pdn::solve_ir_drop(circuit);
  for (const auto kind :
       {sparse::PreconditionerKind::None, sparse::PreconditionerKind::Ic0}) {
    pdn::SolveOptions opts;
    opts.cg.preconditioner = kind;
    const auto sol = pdn::solve_ir_drop(circuit, opts);
    ASSERT_TRUE(sol.converged) << sparse::to_string(kind);
    EXPECT_EQ(sol.preconditioner, kind);
    EXPECT_NEAR(sol.worst_drop, ref.worst_drop, 1e-8)
        << sparse::to_string(kind);
  }
}

}  // namespace
