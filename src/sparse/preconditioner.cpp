#include "sparse/preconditioner.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "sparse/trisolve.hpp"
#include "util/log.hpp"

namespace lmmir::sparse {

const char* to_string(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::None: return "none";
    case PreconditionerKind::Jacobi: return "jacobi";
    case PreconditionerKind::Ic0: return "ic0";
  }
  return "unknown";
}

std::optional<PreconditionerKind> preconditioner_kind_from_string(
    std::string_view key) {
  std::string k(key);
  for (auto& c : k) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (k == "none" || k == "identity") return PreconditionerKind::None;
  if (k == "jacobi" || k == "diag") return PreconditionerKind::Jacobi;
  if (k == "ic0" || k == "ic" || k == "ichol") return PreconditionerKind::Ic0;
  return std::nullopt;
}

PreconditionerKind preconditioner_kind_from_env(PreconditionerKind fallback) {
  const char* v = std::getenv("LMMIR_PRECOND");
  if (!v) return fallback;
  if (const auto kind = preconditioner_kind_from_string(v)) return *kind;
  util::log_warn("ignoring malformed LMMIR_PRECOND='", v,
                 "' (want none|jacobi|ic0)");
  return fallback;
}

namespace {

class IdentityPreconditioner final : public Preconditioner {
 public:
  PreconditionerKind kind() const override { return PreconditionerKind::None; }
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    z = r;
  }
};

class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a) : inv_diag_(a.diagonal()) {
    for (auto& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
  }
  PreconditionerKind kind() const override { return PreconditionerKind::Jacobi; }
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    z.resize(r.size());
    // Elementwise scale: disjoint writes, bitwise-identical for any thread
    // count.
    runtime::parallel_for(0, r.size(), runtime::grain_for_cost(1),
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                              z[i] = inv_diag_[i] * r[i];
                          });
  }

 private:
  std::vector<double> inv_diag_;
};

/// Incomplete Cholesky with zero fill-in: L has exactly the lower-triangle
/// sparsity of A and A ≈ L Lᵀ.  Apply = forward solve L y = r over L, then
/// backward solve Lᵀ z = y as a row-gather sweep over an explicitly stored
/// U = Lᵀ.  Both sweeps are level-scheduled (trisolve.hpp): the rows of one
/// dependency wavefront solve concurrently with fixed per-row arithmetic,
/// so results are bitwise-identical for any runtime thread count.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const CsrMatrix& a) {
    n_ = a.dim();
    // A diagonal shift A + α·diag(A) repairs non-SPD pivots; PDN matrices
    // factor at α = 0.
    for (double alpha : {0.0, 1e-3, 1e-2, 1e-1, 0.5, 1.0, 10.0}) {
      if (factor(a, alpha)) {
        build_transpose();
        forward_ = LevelSchedule::lower(row_ptr_, col_idx_, n_);
        backward_ = LevelSchedule::upper(ut_row_ptr_, ut_col_idx_, n_);
        return;
      }
    }
    throw std::runtime_error(
        "Ic0Preconditioner: factorization broke down even with diagonal "
        "shifts (matrix far from SPD)");
  }
  PreconditionerKind kind() const override { return PreconditionerKind::Ic0; }

  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    const std::size_t row_cost =
        2 * (col_idx_.size() / (n_ ? n_ : 1) + 1);
    work_.resize(n_);
    z.resize(n_);
    // Forward: L y = r (diagonal entry is last in each row of L).
    for_each_level(forward_, row_cost, [&](std::size_t i) {
      double s = r[i];
      for (std::size_t k = row_ptr_[i]; k + 1 < row_ptr_[i + 1]; ++k)
        s -= vals_[k] * work_[col_idx_[k]];
      work_[i] = s / vals_[row_ptr_[i + 1] - 1];
    });
    // Backward: Lᵀ z = y, gathered per row of U = Lᵀ (diagonal entry is
    // first in each row of U).
    for_each_level(backward_, row_cost, [&](std::size_t i) {
      double s = work_[i];
      for (std::size_t k = ut_row_ptr_[i] + 1; k < ut_row_ptr_[i + 1]; ++k)
        s -= ut_vals_[k] * z[ut_col_idx_[k]];
      z[i] = s / ut_vals_[ut_row_ptr_[i]];
    });
  }

 private:
  /// One factorization attempt; false on a non-positive pivot.
  bool factor(const CsrMatrix& a, double alpha) {
    const auto& arp = a.row_ptr();
    const auto& aci = a.col_idx();
    const auto& av = a.values();
    row_ptr_.assign(n_ + 1, 0);
    col_idx_.clear();
    vals_.clear();
    // Lower-triangle pattern of A with the diagonal forced present.
    for (std::size_t i = 0; i < n_; ++i) {
      bool saw_diag = false;
      for (std::size_t k = arp[i]; k < arp[i + 1]; ++k) {
        const std::size_t j = aci[k];
        if (j > i) break;
        double v = av[k];
        if (j == i) {
          saw_diag = true;
          v += alpha * v;
        }
        col_idx_.push_back(j);
        vals_.push_back(v);
      }
      if (!saw_diag) {  // empty diagonal: keep the row solvable
        col_idx_.push_back(i);
        vals_.push_back(1.0);
      }
      row_ptr_[i + 1] = col_idx_.size();
    }
    // In-place row-by-row factorization on the fixed pattern.
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t diag_k = row_ptr_[i + 1] - 1;
      for (std::size_t k = row_ptr_[i]; k < diag_k; ++k) {
        const std::size_t j = col_idx_[k];
        // l_ij = (a_ij - Σ_{t<j} l_it l_jt) / l_jj via a two-pointer merge
        // of row i's and row j's already-factored prefixes.
        double s = vals_[k];
        std::size_t pi = row_ptr_[i];
        std::size_t pj = row_ptr_[j];
        const std::size_t j_diag = row_ptr_[j + 1] - 1;
        while (pi < k && pj < j_diag) {
          if (col_idx_[pi] == col_idx_[pj]) {
            s -= vals_[pi] * vals_[pj];
            ++pi;
            ++pj;
          } else if (col_idx_[pi] < col_idx_[pj]) {
            ++pi;
          } else {
            ++pj;
          }
        }
        vals_[k] = s / vals_[j_diag];
      }
      double s = vals_[diag_k];
      for (std::size_t k = row_ptr_[i]; k < diag_k; ++k)
        s -= vals_[k] * vals_[k];
      if (!(s > 0.0) || !std::isfinite(s)) return false;  // pivot breakdown
      vals_[diag_k] = std::sqrt(s);
    }
    return true;
  }

  /// U = Lᵀ in CSR (row i holds L's column i, ascending, diagonal first):
  /// turns the backward solve's column scatter into a per-row gather the
  /// level scheduler can fan out.
  void build_transpose() {
    ut_row_ptr_.assign(n_ + 1, 0);
    for (std::size_t j : col_idx_) ++ut_row_ptr_[j + 1];
    for (std::size_t i = 0; i < n_; ++i) ut_row_ptr_[i + 1] += ut_row_ptr_[i];
    ut_col_idx_.resize(col_idx_.size());
    ut_vals_.resize(vals_.size());
    std::vector<std::size_t> cursor(ut_row_ptr_.begin(),
                                    ut_row_ptr_.end() - 1);
    // Walking L's rows in ascending order writes each U row's columns in
    // ascending order, and the first entry of column i encountered is the
    // diagonal L_ii (rows below i contribute the strictly-upper tail).
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::size_t j = col_idx_[k];
        ut_col_idx_[cursor[j]] = i;
        ut_vals_[cursor[j]] = vals_[k];
        ++cursor[j];
      }
  }

  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;  // L, lower triangle incl. diagonal
  std::vector<std::size_t> col_idx_;
  std::vector<double> vals_;
  std::vector<std::size_t> ut_row_ptr_;  // U = Lᵀ (see build_transpose)
  std::vector<std::size_t> ut_col_idx_;
  std::vector<double> ut_vals_;
  LevelSchedule forward_;   // wavefronts of the L solve
  LevelSchedule backward_;  // wavefronts of the Lᵀ solve
  mutable std::vector<double> work_;  // forward-solve intermediate
};

}  // namespace

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const CsrMatrix& a) {
  obs::Span span("precond.build");
  if (obs::metrics_enabled())
    obs::counter("lmmir_precond_builds_total").add();
  switch (kind) {
    case PreconditionerKind::None:
      return std::make_unique<IdentityPreconditioner>();
    case PreconditionerKind::Jacobi:
      return std::make_unique<JacobiPreconditioner>(a);
    case PreconditionerKind::Ic0:
      return std::make_unique<Ic0Preconditioner>(a);
  }
  throw std::invalid_argument("make_preconditioner: unknown kind");
}

std::unique_ptr<Preconditioner> make_preconditioner(std::string_view key,
                                                    const CsrMatrix& a) {
  const auto kind = preconditioner_kind_from_string(key);
  if (!kind)
    throw std::invalid_argument("make_preconditioner: unknown key '" +
                                std::string(key) + "'");
  return make_preconditioner(*kind, a);
}

}  // namespace lmmir::sparse
