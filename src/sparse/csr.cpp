#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "runtime/parallel_for.hpp"

namespace lmmir::sparse {

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= n_ || col >= n_)
    throw std::out_of_range("CooBuilder::add: index out of range");
  rows_.push_back(row);
  cols_.push_back(col);
  vals_.push_back(value);
}

CsrMatrix CsrMatrix::from_coo(const CooBuilder& coo) {
  CsrMatrix m;
  m.n_ = coo.dim();
  const std::size_t nnz_in = coo.entry_count();

  // Sort triplet indices by (row, col).
  std::vector<std::size_t> order(nnz_in);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (coo.rows()[a] != coo.rows()[b]) return coo.rows()[a] < coo.rows()[b];
    return coo.cols()[a] < coo.cols()[b];
  });

  m.row_ptr_.assign(m.n_ + 1, 0);
  for (std::size_t k : order) {
    const std::size_t r = coo.rows()[k];
    const std::size_t c = coo.cols()[k];
    const double v = coo.values()[k];
    if (!m.col_idx_.empty() && m.row_ptr_[r + 1] > m.row_ptr_[r] &&
        m.col_idx_.back() == c &&
        // last pushed entry belongs to this same row?
        m.col_idx_.size() == m.row_ptr_[r + 1]) {
      m.vals_.back() += v;  // duplicate: accumulate (MNA stamping)
    } else {
      m.col_idx_.push_back(c);
      m.vals_.push_back(v);
      m.row_ptr_[r + 1] = m.col_idx_.size();
    }
  }
  // Rows with no entries still need cumulative pointers.
  for (std::size_t r = 0; r < m.n_; ++r)
    m.row_ptr_[r + 1] = std::max(m.row_ptr_[r + 1], m.row_ptr_[r]);
  return m;
}

void CsrMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  if (x.size() != n_) throw std::invalid_argument("CsrMatrix::multiply: size");
  y.assign(n_, 0.0);
  // Rows are independent; y is written in disjoint slices and each row's
  // accumulation order matches the serial kernel (deterministic results).
  const std::size_t avg_nnz = vals_.size() / (n_ ? n_ : 1);
  runtime::parallel_for(
      0, n_, runtime::grain_for_cost(2 * (avg_nnz + 1)),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double acc = 0.0;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            acc += vals_[k] * x[col_idx_[k]];
          y[r] = acc;
        }
      });
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      if (col_idx_[k] == r) d[r] = vals_[k];
  return d;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  const std::size_t k = find_entry(row, col);
  return k == npos ? 0.0 : vals_[k];
}

std::size_t CsrMatrix::find_entry(std::size_t row, std::size_t col) const {
  if (row >= n_ || col >= n_)
    throw std::out_of_range("CsrMatrix::find_entry: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return npos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

std::size_t CsrMatrix::bytes_per_spmv() const {
  return vals_.size() * sizeof(double) +          // values
         col_idx_.size() * sizeof(std::size_t) +  // column indices
         row_ptr_.size() * sizeof(std::size_t) +  // row pointers
         2 * n_ * sizeof(double);                 // x read + y write
}

double CsrMatrix::symmetry_error() const {
  double worst = 0.0;
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const double vt = at(col_idx_[k], r);
      worst = std::max(worst, std::abs(vals_[k] - vt));
    }
  return worst;
}

}  // namespace lmmir::sparse
