#pragma once
// Sparse linear algebra for the golden IR-drop solver.  PDN conductance
// matrices are symmetric positive definite with a handful of nonzeros per
// row, so a COO builder + CSR storage + CG solver covers everything the
// library needs without external dependencies.
#include <cstddef>
#include <vector>

namespace lmmir::sparse {

/// Triplet accumulator.  Duplicate (row, col) entries are summed when
/// converting to CSR, which is exactly the "stamping" semantics MNA needs.
class CooBuilder {
 public:
  explicit CooBuilder(std::size_t n) : n_(n) {}

  std::size_t dim() const { return n_; }
  std::size_t entry_count() const { return rows_.size(); }

  void add(std::size_t row, std::size_t col, double value);

  const std::vector<std::size_t>& rows() const { return rows_; }
  const std::vector<std::size_t>& cols() const { return cols_; }
  const std::vector<double>& values() const { return vals_; }

 private:
  std::size_t n_;
  std::vector<std::size_t> rows_, cols_;
  std::vector<double> vals_;
};

/// Compressed sparse row matrix (square, double precision).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets, summing duplicate (row, col) entries.
  static CsrMatrix from_coo(const CooBuilder& coo);

  std::size_t dim() const { return n_; }
  std::size_t nnz() const { return vals_.size(); }

  /// y = A * x  (x.size() == y.size() == dim()).
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Diagonal entries (zero where absent) — Jacobi preconditioner input.
  std::vector<double> diagonal() const;

  /// Entry lookup (O(log nnz_row)); 0.0 where absent.
  double at(std::size_t row, std::size_t col) const;

  /// Storage slot of entry (row, col) in values(), or npos when the entry
  /// is not in the sparsity pattern.  Lets callers precompute a numeric-
  /// refresh plan once and then update values in place (see values_mut).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_entry(std::size_t row, std::size_t col) const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return vals_; }

  /// Mutable numeric values on the FIXED sparsity pattern — the in-place
  /// refresh path for repeated solves of topologically identical systems
  /// (pdn::SolverContext).  The pattern itself (row_ptr/col_idx) is
  /// immutable after construction.
  std::vector<double>& values_mut() { return vals_; }

  /// Max |A - Aᵀ| entry; 0 for exactly symmetric matrices.
  double symmetry_error() const;

  /// Bytes streamed by one multiply(): values + indices + x + y (the
  /// deterministic work count behind CgResult::spmv_bytes).
  std::size_t bytes_per_spmv() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;  // n+1
  std::vector<std::size_t> col_idx_;  // nnz (sorted per row)
  std::vector<double> vals_;          // nnz
};

}  // namespace lmmir::sparse
