#pragma once
// Level-scheduled sparse triangular solves.
//
// A triangular solve carries a loop dependence (row i needs the results of
// the rows its off-diagonal entries reference), which is why the IC(0)
// preconditioner apply used to be serial.  Level scheduling recovers the
// parallelism that IS there: rows are grouped into "levels" such that every
// dependency of a row lives in a strictly earlier level, so all rows of one
// level can be solved concurrently with a barrier between levels.  On
// PDN-mesh matrices the levels are wide (anti-diagonal wavefronts), so the
// sweep scales over the thread pool.
//
// Determinism contract (same fixed-block discipline as the PCG reductions):
// each row is computed by exactly one thread using the exact per-row
// arithmetic of the serial sweep, and a row only reads values finalized in
// earlier levels (the parallel_for join is the barrier).  The solved vector
// is therefore bitwise-identical for any thread count, including the fully
// serial pool.
#include <cstddef>
#include <vector>

#include "runtime/parallel_for.hpp"

namespace lmmir::sparse {

/// Dependency schedule of a sparse triangular solve over CSR storage.
/// Immutable after build; one schedule serves any number of solves on
/// matrices with the same sparsity pattern (values may change freely).
class LevelSchedule {
 public:
  LevelSchedule() = default;

  /// Schedule for a LOWER solve: row i depends on every column j < i
  /// present in row i (entries with j >= i are ignored, so the full matrix
  /// or an L factor with explicit diagonal both work).
  static LevelSchedule lower(const std::vector<std::size_t>& row_ptr,
                             const std::vector<std::size_t>& col_idx,
                             std::size_t n);

  /// Schedule for an UPPER solve: row i depends on every column j > i
  /// present in row i.
  static LevelSchedule upper(const std::vector<std::size_t>& row_ptr,
                             const std::vector<std::size_t>& col_idx,
                             std::size_t n);

  std::size_t row_count() const { return rows_.size(); }
  std::size_t level_count() const {
    return level_ptr_.empty() ? 0 : level_ptr_.size() - 1;
  }
  /// Row ids grouped by level, ascending within each level.
  const std::vector<std::size_t>& rows() const { return rows_; }
  /// Level l spans rows()[level_ptr()[l] .. level_ptr()[l+1]).
  const std::vector<std::size_t>& level_ptr() const { return level_ptr_; }
  /// Mean rows per level: the parallelism a sweep can actually use.
  double average_width() const;

 private:
  static LevelSchedule from_levels(const std::vector<std::size_t>& level,
                                   std::size_t n_levels);

  std::vector<std::size_t> rows_;
  std::vector<std::size_t> level_ptr_;
};

/// Run `row_solve(row)` for every scheduled row, level by level, fanning
/// the rows of each level over the global thread pool.  `per_row_cost` is
/// the approximate scalar-op cost of one row (see grain_for_cost); small
/// levels run inline on the caller.  Bitwise-identical for any thread
/// count provided row_solve(i) only reads results of earlier levels.
template <typename RowSolve>
void for_each_level(const LevelSchedule& sched, std::size_t per_row_cost,
                    RowSolve&& row_solve) {
  const auto& rows = sched.rows();
  const auto& lp = sched.level_ptr();
  const std::size_t grain = runtime::grain_for_cost(per_row_cost);
  for (std::size_t l = 0; l + 1 < lp.size(); ++l) {
    runtime::parallel_for(lp[l], lp[l + 1], grain,
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t k = lo; k < hi; ++k)
                              row_solve(rows[k]);
                          });
  }
}

}  // namespace lmmir::sparse
