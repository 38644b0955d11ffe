// sparse: CSR construction, SpMV, CG solver vs dense Cholesky.
#include <gtest/gtest.h>

#include <cmath>

#include "sparse/cg.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/trisolve.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir::sparse;

TEST(Coo, RejectsOutOfRange) {
  CooBuilder coo(3);
  EXPECT_THROW(coo.add(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(coo.add(0, 7, 1.0), std::out_of_range);
}

TEST(Csr, SumsDuplicates) {
  CooBuilder coo(2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 0, -1.0);
  coo.add(1, 1, 4.0);
  const auto m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(Csr, MultiplyMatchesManual) {
  CooBuilder coo(3);
  coo.add(0, 0, 2.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 1, 3.0);
  coo.add(2, 0, -1.0);
  const auto m = CsrMatrix::from_coo(coo);
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(Csr, DiagonalAndSymmetry) {
  CooBuilder coo(2);
  coo.add(0, 0, 4.0);
  coo.add(0, 1, -1.0);
  coo.add(1, 0, -1.0);
  coo.add(1, 1, 3.0);
  const auto m = CsrMatrix::from_coo(coo);
  const auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(m.symmetry_error(), 0.0);
}

TEST(Csr, EmptyRowsHandled) {
  CooBuilder coo(4);
  coo.add(0, 0, 1.0);
  coo.add(3, 3, 1.0);
  const auto m = CsrMatrix::from_coo(coo);
  std::vector<double> x(4, 1.0), y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

TEST(Cholesky, SolvesSmallSystem) {
  DenseMatrix a(2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = cholesky_solve(a, {1.0, 2.0});
  EXPECT_NEAR(4.0 * x[0] + x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + 3.0 * x[1], 2.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = a.at(1, 0) = 5.0;
  a.at(1, 1) = 1.0;
  EXPECT_THROW(cholesky_solve(a, {1.0, 1.0}), std::runtime_error);
}

TEST(Cg, TrivialAndEdgeCases) {
  // 1x1 system
  CooBuilder coo(1);
  coo.add(0, 0, 5.0);
  const auto m = CsrMatrix::from_coo(coo);
  const auto res = conjugate_gradient(m, {10.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 2.0, 1e-9);

  // zero rhs -> zero solution, immediately converged
  const auto res0 = conjugate_gradient(m, {0.0});
  EXPECT_TRUE(res0.converged);
  EXPECT_DOUBLE_EQ(res0.x[0], 0.0);
}

TEST(Cg, RejectsSizeMismatch) {
  CooBuilder coo(2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  const auto m = CsrMatrix::from_coo(coo);
  EXPECT_THROW(conjugate_gradient(m, {1.0}), std::invalid_argument);
}

/// Property sweep: CG matches dense Cholesky on random SPD
/// (diagonally-dominant Laplacian-like) systems of several sizes.
class CgVsCholesky : public ::testing::TestWithParam<int> {};

TEST_P(CgVsCholesky, Agree) {
  const int n = GetParam();
  lmmir::util::Rng rng(static_cast<std::uint64_t>(n) * 977 + 5);

  CooBuilder coo(static_cast<std::size_t>(n));
  DenseMatrix dense(static_cast<std::size_t>(n));
  // Random resistive-mesh-style SPD matrix: off-diagonals negative,
  // diagonal = |row sum| + leak.
  std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!rng.chance(0.3)) continue;
      const double g = rng.uniform_double(0.1, 2.0);
      coo.add(static_cast<std::size_t>(i), static_cast<std::size_t>(j), -g);
      coo.add(static_cast<std::size_t>(j), static_cast<std::size_t>(i), -g);
      dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = -g;
      dense.at(static_cast<std::size_t>(j), static_cast<std::size_t>(i)) = -g;
      diag[static_cast<std::size_t>(i)] += g;
      diag[static_cast<std::size_t>(j)] += g;
    }
  }
  for (int i = 0; i < n; ++i) {
    const double d = diag[static_cast<std::size_t>(i)] +
                     rng.uniform_double(0.5, 1.5);  // ground leak -> SPD
    coo.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), d);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) = d;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform_double(-1.0, 1.0);

  const auto m = CsrMatrix::from_coo(coo);
  EXPECT_LT(m.symmetry_error(), 1e-12);
  const auto cg = conjugate_gradient(m, b);
  ASSERT_TRUE(cg.converged) << "residual " << cg.residual;
  const auto exact = cholesky_solve(dense, b);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(cg.x[static_cast<std::size_t>(i)],
                exact[static_cast<std::size_t>(i)], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsCholesky,
                         ::testing::Values(2, 5, 16, 40, 100));

// --- CG breakdown handling on degenerate (semi-definite) systems ---------

/// Graph-Laplacian of a single edge: exactly singular, PSD.
CsrMatrix singular_edge_laplacian(double leak = 0.0) {
  CooBuilder coo(2);
  coo.add(0, 0, 1.0 + leak);
  coo.add(0, 1, -1.0);
  coo.add(1, 0, -1.0);
  coo.add(1, 1, 1.0 + leak);
  return CsrMatrix::from_coo(coo);
}

TEST(CgBreakdown, SingularInconsistentRhsStaysFinite) {
  // b = [1, 1] is orthogonal to the range of [[1,-1],[-1,1]]: the very
  // first search direction has pᵀAp == 0.  The solver must flag breakdown
  // with a finite residual and iterate — never NaN-poison the solve.
  const auto m = singular_edge_laplacian();
  const auto res = conjugate_gradient(m, {1.0, 1.0});
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.breakdown);
  EXPECT_TRUE(std::isfinite(res.residual));
  for (double v : res.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(CgBreakdown, SingularConsistentRhsConverges) {
  // b = [1, -1] lies in the range: CG reaches the minimum-norm solution in
  // one step without tripping the breakdown guards.
  const auto m = singular_edge_laplacian();
  const auto res = conjugate_gradient(m, {1.0, -1.0});
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.breakdown);
  EXPECT_NEAR(res.x[0], 0.5, 1e-9);
  EXPECT_NEAR(res.x[1], -0.5, 1e-9);
}

TEST(CgBreakdown, NearSingularNeverProducesNan) {
  // A tiny ground leak makes pᵀAp positive but ~1e-12: the old solver blew
  // up through a huge alpha into inf/NaN (beta = inf/inf).  The guarded
  // solver either converges or stops finite.
  const auto m = singular_edge_laplacian(1e-12);
  const auto res = conjugate_gradient(m, {1.0, 1.0});
  EXPECT_TRUE(std::isfinite(res.residual));
  for (double v : res.x) EXPECT_TRUE(std::isfinite(v));
  if (!res.converged) {
    EXPECT_TRUE(res.breakdown);
  }
}

TEST(Cg, RecordsResidualHistory) {
  CooBuilder coo(3);
  coo.add(0, 0, 4.0);
  coo.add(0, 1, -1.0);
  coo.add(1, 0, -1.0);
  coo.add(1, 1, 4.0);
  coo.add(1, 2, -1.0);
  coo.add(2, 1, -1.0);
  coo.add(2, 2, 4.0);
  const auto m = CsrMatrix::from_coo(coo);
  const auto res = conjugate_gradient(m, {1.0, 2.0, 3.0});
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.residual_history.size(), res.iterations);
  EXPECT_DOUBLE_EQ(res.residual_history.back(), res.residual);
  EXPECT_LT(res.residual_history.back(), CgOptions{}.tolerance);
  // One SpMV per iteration on a cold start, each streaming the matrix's
  // deterministic byte count.
  EXPECT_EQ(res.spmv_count, res.iterations);
  EXPECT_EQ(res.spmv_bytes, res.spmv_count * m.bytes_per_spmv());
}

TEST(Cg, WarmStartFromExactSolutionTakesZeroIterations) {
  CooBuilder coo(2);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 5.0);
  const auto m = CsrMatrix::from_coo(coo);
  const std::vector<double> b = {4.0, 10.0};
  const std::vector<double> exact = {2.0, 2.0};
  const auto res = conjugate_gradient(m, b, {}, nullptr, &exact);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.warm_started);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_DOUBLE_EQ(res.x[0], 2.0);
  EXPECT_DOUBLE_EQ(res.x[1], 2.0);
}

TEST(Cg, WarmStartRejectsWrongSizeGuess) {
  CooBuilder coo(2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  const auto m = CsrMatrix::from_coo(coo);
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(conjugate_gradient(m, {1.0, 1.0}, {}, nullptr, &bad),
               std::invalid_argument);
}

TEST(Cg, ColdStartUnchangedByWarmStartPlumbing) {
  // x0 == nullptr must take exactly the historical code path: a zero
  // initial iterate and initial_residual pinned to 1.
  CooBuilder coo(2);
  coo.add(0, 0, 3.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 3.0);
  const auto m = CsrMatrix::from_coo(coo);
  const auto res = conjugate_gradient(m, {1.0, -2.0});
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(res.warm_started);
  EXPECT_DOUBLE_EQ(res.initial_residual, 1.0);
}

// -------------------------------------------------- level schedules

TEST(LevelSchedule, DiagonalMatrixIsOneLevel) {
  CooBuilder coo(5);
  for (std::size_t i = 0; i < 5; ++i) coo.add(i, i, 2.0);
  const auto m = CsrMatrix::from_coo(coo);
  const auto s = LevelSchedule::lower(m.row_ptr(), m.col_idx(), m.dim());
  EXPECT_EQ(s.level_count(), 1u);
  EXPECT_EQ(s.row_count(), 5u);
  EXPECT_DOUBLE_EQ(s.average_width(), 5.0);
}

TEST(LevelSchedule, TridiagonalChainIsFullySequential) {
  const std::size_t n = 6;
  CooBuilder coo(n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  const auto m = CsrMatrix::from_coo(coo);
  const auto lo = LevelSchedule::lower(m.row_ptr(), m.col_idx(), m.dim());
  const auto up = LevelSchedule::upper(m.row_ptr(), m.col_idx(), m.dim());
  EXPECT_EQ(lo.level_count(), n);  // a chain has no wavefront parallelism
  EXPECT_EQ(up.level_count(), n);
  // Lower levels emit rows in ascending order, upper in descending.
  EXPECT_EQ(lo.rows().front(), 0u);
  EXPECT_EQ(up.rows().front(), n - 1);
}

TEST(LevelSchedule, EveryDependencyLivesInAnEarlierLevel) {
  // Random-ish SPD-patterned matrix: band + a few long-range entries.
  const std::size_t n = 40;
  CooBuilder coo(n);
  for (std::size_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i >= 3) {
      coo.add(i, i - 3, -1.0);
      coo.add(i - 3, i, -1.0);
    }
    if (i >= 11) {
      coo.add(i, i - 11, -0.5);
      coo.add(i - 11, i, -0.5);
    }
  }
  const auto m = CsrMatrix::from_coo(coo);
  for (const bool lower : {true, false}) {
    const auto s = lower
                       ? LevelSchedule::lower(m.row_ptr(), m.col_idx(), m.dim())
                       : LevelSchedule::upper(m.row_ptr(), m.col_idx(), m.dim());
    ASSERT_EQ(s.row_count(), n);
    std::vector<std::size_t> level_of(n, 0);
    for (std::size_t l = 0; l + 1 < s.level_ptr().size(); ++l)
      for (std::size_t k = s.level_ptr()[l]; k < s.level_ptr()[l + 1]; ++k)
        level_of[s.rows()[k]] = l;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k) {
        const std::size_t j = m.col_idx()[k];
        if (lower ? (j < i) : (j > i)) {
          EXPECT_LT(level_of[j], level_of[i])
              << (lower ? "lower" : "upper") << " dep " << j << " -> " << i;
        }
      }
  }
}

TEST(Csr, FindEntryLocatesSlots) {
  CooBuilder coo(3);
  coo.add(0, 0, 1.0);
  coo.add(1, 2, -2.0);
  coo.add(2, 2, 5.0);
  auto m = CsrMatrix::from_coo(coo);
  const std::size_t k = m.find_entry(1, 2);
  ASSERT_NE(k, CsrMatrix::npos);
  EXPECT_DOUBLE_EQ(m.values()[k], -2.0);
  EXPECT_EQ(m.find_entry(0, 2), CsrMatrix::npos);
  EXPECT_THROW(m.find_entry(3, 0), std::out_of_range);
  // values_mut writes through to the SpMV.
  m.values_mut()[k] = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
}

}  // namespace
