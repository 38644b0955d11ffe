// preconditioners: factory keys, apply correctness on small matrices, and
// the PCG contract on real suite circuits — every preconditioner reaches
// the same solution, IC0 never iterates more than plain CG, and results
// are bitwise-identical for any runtime thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "gen/began.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "runtime/thread_pool.hpp"
#include "sparse/cg.hpp"
#include "sparse/preconditioner.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
using namespace lmmir::sparse;

constexpr PreconditionerKind kAllKinds[] = {PreconditionerKind::None,
                                            PreconditionerKind::Jacobi,
                                            PreconditionerKind::Ic0};

/// Keys of preconditioners that were retired (SSOR, AMG and domain
/// decomposition) because they lost on wall time: they must now
/// be rejected like any other unknown key.
constexpr const char* kRetiredKeys[] = {"ssor", "amg",     "multigrid",
                                        "sa",   "dd",      "schwarz",
                                        "block_jacobi"};

/// Reduced MNA systems of a few generated suite circuits (shared across
/// tests; generation is deterministic).
const std::vector<pdn::AssembledSystem>& suite_systems() {
  static const std::vector<pdn::AssembledSystem> systems = [] {
    std::vector<pdn::AssembledSystem> out;
    for (const double side : {26.0, 40.0}) {
      gen::GeneratorConfig cfg;
      cfg.name = "precond_suite";
      cfg.width_um = cfg.height_um = side;
      cfg.seed = 0xABCDu + static_cast<std::uint64_t>(side);
      cfg.use_default_stack();
      cfg.total_current = 0.08 * (side * side) / (64.0 * 64.0);
      const spice::Netlist nl = gen::generate_pdn(cfg);
      out.push_back(pdn::assemble_ir_system(pdn::Circuit(nl)));
    }
    return out;
  }();
  return systems;
}

TEST(PrecondFactory, ParsesCanonicalKeys) {
  EXPECT_EQ(preconditioner_kind_from_string("none"), PreconditionerKind::None);
  EXPECT_EQ(preconditioner_kind_from_string("Jacobi"),
            PreconditionerKind::Jacobi);
  EXPECT_EQ(preconditioner_kind_from_string("ic0"), PreconditionerKind::Ic0);
  EXPECT_FALSE(preconditioner_kind_from_string("cholmod").has_value());
  for (const auto kind : kAllKinds)
    EXPECT_EQ(preconditioner_kind_from_string(to_string(kind)), kind);
}

TEST(PrecondFactory, UnknownKeyThrows) {
  CooBuilder coo(1);
  coo.add(0, 0, 1.0);
  const auto m = CsrMatrix::from_coo(coo);
  EXPECT_THROW(make_preconditioner("cholmod", m), std::invalid_argument);
  for (const char* key : kRetiredKeys) {
    EXPECT_FALSE(preconditioner_kind_from_string(key).has_value()) << key;
    EXPECT_THROW(make_preconditioner(key, m), std::invalid_argument) << key;
  }
  EXPECT_NO_THROW(make_preconditioner("IC0", m));
}

TEST(PrecondFactory, RetiredEnvKeyWarnsAndFallsBackToJacobi) {
  const char* old = std::getenv("LMMIR_PRECOND");
  const std::string saved = old ? old : "";
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::Warn);
  ::setenv("LMMIR_PRECOND", "amg", 1);
  testing::internal::CaptureStderr();
  const PreconditionerKind kind = preconditioner_kind_from_env();
  const std::string warning = testing::internal::GetCapturedStderr();
  if (old)
    ::setenv("LMMIR_PRECOND", saved.c_str(), 1);
  else
    ::unsetenv("LMMIR_PRECOND");
  util::set_log_level(level);
  EXPECT_EQ(kind, PreconditionerKind::Jacobi);
  EXPECT_NE(warning.find("LMMIR_PRECOND='amg'"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("(want none|jacobi|ic0)"), std::string::npos)
      << warning;
}

TEST(PrecondApply, JacobiScalesByInverseDiagonal) {
  CooBuilder coo(2);
  coo.add(0, 0, 4.0);
  coo.add(1, 1, 0.5);
  const auto m = CsrMatrix::from_coo(coo);
  const auto p = make_preconditioner(PreconditionerKind::Jacobi, m);
  std::vector<double> z;
  p->apply({2.0, 2.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 0.5);
  EXPECT_DOUBLE_EQ(z[1], 4.0);
}

TEST(PrecondApply, Ic0ExactOnTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix has no dropped fill: L Lᵀ = A, so
  // M⁻¹(A v) must reproduce v to rounding.
  const std::size_t n = 12;
  CooBuilder coo(n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, 3.0);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  const auto m = CsrMatrix::from_coo(coo);
  const auto p = make_preconditioner(PreconditionerKind::Ic0, m);
  util::Rng rng(42);
  std::vector<double> v(n), av, z;
  for (auto& x : v) x = rng.uniform_double(-1.0, 1.0);
  m.multiply(v, av);
  p->apply(av, z);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], v[i], 1e-12);
}

TEST(PrecondApply, Ic0InverseIsSymmetric) {
  // PCG needs M SPD; check ⟨u, M⁻¹v⟩ = ⟨v, M⁻¹u⟩ on a suite matrix.  The
  // backward sweep runs over an explicitly stored U = Lᵀ, so this also
  // checks that U really is the transpose of the forward factor.
  const auto& sys = suite_systems().front();
  const auto p = make_preconditioner(PreconditionerKind::Ic0, sys.matrix);
  const std::size_t n = sys.matrix.dim();
  util::Rng rng(7);
  std::vector<double> u(n), v(n), mu, mv;
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform_double(-1.0, 1.0);
    v[i] = rng.uniform_double(-1.0, 1.0);
  }
  p->apply(u, mu);
  p->apply(v, mv);
  double uv = 0.0, vu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    uv += u[i] * mv[i];
    vu += v[i] * mu[i];
  }
  EXPECT_NEAR(uv, vu, 1e-9 * std::max(1.0, std::abs(uv)));
}

// Property (a): every preconditioner reproduces the Jacobi-PCG solution on
// suite circuits within 1e-8.
TEST(PrecondProperty, SolutionsAgreeAcrossPreconditioners) {
  for (const auto& sys : suite_systems()) {
    CgOptions jopts;
    jopts.preconditioner = PreconditionerKind::Jacobi;
    jopts.tolerance = 1e-12;  // headroom so iterates agree to 1e-8
    const auto ref = conjugate_gradient(sys.matrix, sys.rhs, jopts);
    ASSERT_TRUE(ref.converged);
    for (const auto kind : kAllKinds) {
      CgOptions opts = jopts;
      opts.preconditioner = kind;
      const auto res = conjugate_gradient(sys.matrix, sys.rhs, opts);
      ASSERT_TRUE(res.converged) << to_string(kind);
      ASSERT_EQ(res.x.size(), ref.x.size());
      for (std::size_t i = 0; i < res.x.size(); ++i)
        ASSERT_NEAR(res.x[i], ref.x[i], 1e-8)
            << to_string(kind) << " node " << i;
    }
  }
}

// Property (b): IC(0) never increases the iteration count over
// unpreconditioned CG on suite matrices.
TEST(PrecondProperty, Ic0NeverIteratesMoreThanPlainCg) {
  for (const auto& sys : suite_systems()) {
    auto iterations = [&](PreconditionerKind kind) {
      CgOptions opts;
      opts.preconditioner = kind;
      const auto res = conjugate_gradient(sys.matrix, sys.rhs, opts);
      EXPECT_TRUE(res.converged) << to_string(kind);
      return res.iterations;
    };
    const std::size_t base = iterations(PreconditionerKind::None);
    EXPECT_LE(iterations(PreconditionerKind::Ic0), base);
  }
}

/// Restores the global pool to 1 thread even when an ASSERT bails out of
/// the test early (a leaked 4-thread pool would skew later tests).
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_global_threads(1); }
};

// Property (c): the PCG iterate stream is bitwise-identical at 1 vs N
// runtime threads (fixed-block reductions; level-scheduled triangular
// sweeps).
TEST(PrecondProperty, BitwiseIdenticalAcrossThreadCounts) {
  const auto& sys = suite_systems().back();
  ThreadGuard guard;
  for (const auto kind : kAllKinds) {
    CgOptions opts;
    opts.preconditioner = kind;
    runtime::set_global_threads(1);
    const auto serial = conjugate_gradient(sys.matrix, sys.rhs, opts);
    runtime::set_global_threads(4);
    const auto parallel = conjugate_gradient(sys.matrix, sys.rhs, opts);
    runtime::set_global_threads(1);
    ASSERT_EQ(serial.iterations, parallel.iterations) << to_string(kind);
    ASSERT_EQ(serial.x.size(), parallel.x.size());
    for (std::size_t i = 0; i < serial.x.size(); ++i)
      ASSERT_EQ(serial.x[i], parallel.x[i])
          << to_string(kind) << " node " << i;  // exact, not NEAR
    EXPECT_EQ(serial.residual, parallel.residual) << to_string(kind);
  }
}

// An injected (prebuilt) preconditioner is reused rather than rebuilt:
// setup time is attributed to the caller and results match.
TEST(Precond, InjectedInstanceMatchesFactoryPath) {
  const auto& sys = suite_systems().front();
  CgOptions opts;
  opts.preconditioner = PreconditionerKind::Ic0;
  const auto built_in = conjugate_gradient(sys.matrix, sys.rhs, opts);
  const auto shared = make_preconditioner(PreconditionerKind::Ic0, sys.matrix);
  const auto injected =
      conjugate_gradient(sys.matrix, sys.rhs, opts, shared.get());
  EXPECT_EQ(injected.precond_setup_seconds, 0.0);
  ASSERT_EQ(built_in.x.size(), injected.x.size());
  for (std::size_t i = 0; i < built_in.x.size(); ++i)
    EXPECT_EQ(built_in.x[i], injected.x[i]);
}

}  // namespace
