#include "sparse/cg.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "util/stopwatch.hpp"

namespace lmmir::sparse {

namespace {

/// Fixed reduction block: partial sums are computed per block (serial
/// inside each block) and combined serially in block order, so the result
/// is bitwise-identical for any runtime thread count.
constexpr std::size_t kReduceBlock = 4096;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  if (n <= kReduceBlock) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    return acc;
  }
  const std::size_t nblocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partial(nblocks, 0.0);
  runtime::parallel_for(
      0, nblocks, runtime::grain_for_cost(2 * kReduceBlock),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t blk = lo; blk < hi; ++blk) {
          const std::size_t from = blk * kReduceBlock;
          const std::size_t to = std::min(n, from + kReduceBlock);
          double acc = 0.0;
          for (std::size_t i = from; i < to; ++i) acc += a[i] * b[i];
          partial[blk] = acc;
        }
      });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return acc;
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

/// x += alpha*p, r -= alpha*ap in one pass (disjoint element writes).
void update_iterate(std::vector<double>& x, std::vector<double>& r,
                    const std::vector<double>& p, const std::vector<double>& ap,
                    double alpha) {
  runtime::parallel_for(0, x.size(), runtime::grain_for_cost(4),
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) {
                            x[i] += alpha * p[i];
                            r[i] -= alpha * ap[i];
                          }
                        });
}

/// p = z + beta*p.
void update_direction(std::vector<double>& p, const std::vector<double>& z,
                      double beta) {
  runtime::parallel_for(0, p.size(), runtime::grain_for_cost(2),
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i)
                            p[i] = z[i] + beta * p[i];
                        });
}

/// Step sizes beyond this are numerically meaningless for conductance
/// systems and risk overflowing the iterate: treat as breakdown instead.
constexpr double kAlphaLimit = 1e100;

/// y = A·x with the solve's work counters updated: one product, its
/// deterministic byte count, and the wall time it took.  Counter and
/// stopwatch writes happen outside the kernel, so the floating-point
/// arithmetic — and the golden checksums — are untouched.
void counted_spmv(const CsrMatrix& a, const std::vector<double>& x,
                  std::vector<double>& y, CgResult& res) {
  util::Stopwatch watch;
  a.multiply(x, y);
  res.spmv_seconds += watch.seconds();
  res.spmv_count += 1;
  res.spmv_bytes += a.bytes_per_spmv();
}

/// The PCG recurrence (all double precision).
CgResult run_pcg(const CsrMatrix& a, const std::vector<double>& b,
                 const CgOptions& opts, const Preconditioner* precond,
                 const std::vector<double>* x0) {
  const std::size_t n = a.dim();
  if (b.size() != n)
    throw std::invalid_argument("conjugate_gradient: rhs size mismatch");
  if (x0 && x0->size() != n)
    throw std::invalid_argument("conjugate_gradient: x0 size mismatch");

  CgResult res;
  res.preconditioner = precond ? precond->kind() : opts.preconditioner;
  res.x.assign(n, 0.0);
  if (n == 0) {
    res.converged = true;
    return res;
  }

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    res.converged = true;  // x = 0 is exact; ignore any guess
    return res;
  }

  std::unique_ptr<Preconditioner> owned;
  const Preconditioner* m = precond;
  if (!m) {
    util::Stopwatch setup_watch;
    owned = make_preconditioner(opts.preconditioner, a);
    m = owned.get();
    res.precond_setup_seconds = setup_watch.seconds();
  }

  std::vector<double> r = b;  // r = b - A*0
  std::vector<double> z(n), p(n), ap(n);
  if (x0) {
    // Warm start: r = b - A·x₀.  A guess with a non-finite residual (stale
    // iterate of an exploded solve) is discarded rather than trusted.
    res.x = *x0;
    counted_spmv(a, res.x, ap, res);
    runtime::parallel_for(0, n, runtime::grain_for_cost(1),
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                              r[i] -= ap[i];
                          });
    const double r0 = norm2(r) / bnorm;
    if (std::isfinite(r0)) {
      res.warm_started = true;
      res.initial_residual = r0;
      res.residual = r0;
      if (r0 < opts.tolerance) {
        res.converged = true;  // the guess already satisfies the tolerance
        return res;
      }
    } else {
      res.x.assign(n, 0.0);
      r = b;
    }
  }
  {
    util::Stopwatch apply_watch;
    m->apply(r, z);
    res.precond_apply_seconds += apply_watch.seconds();
  }
  p = z;
  double rz = dot(r, z);
  if (!res.warm_started) res.residual = 1.0;  // ||b - A*0|| / ||b||
  if (!(rz > 0.0) || !std::isfinite(rz)) {
    // M is not positive definite on r (degenerate preconditioner input).
    res.breakdown = true;
    return res;
  }

  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    counted_spmv(a, p, ap, res);
    const double pap = dot(p, ap);
    if (!(pap > 0.0) || !std::isfinite(pap)) {
      res.breakdown = true;  // matrix not SPD along p (semi-definite case)
      break;
    }
    const double alpha = rz / pap;
    if (!std::isfinite(alpha) || std::abs(alpha) > kAlphaLimit) {
      res.breakdown = true;  // step would overflow the iterate
      break;
    }
    update_iterate(res.x, r, p, ap, alpha);
    const double next_residual = norm2(r) / bnorm;
    if (!std::isfinite(next_residual)) {
      // ||r||² overflowed: roll the update back (entries are still finite,
      // alpha was bounded) and stop with the last usable iterate.
      update_iterate(res.x, r, p, ap, -alpha);
      res.breakdown = true;
      break;
    }
    res.iterations = it + 1;
    res.residual = next_residual;
    if (opts.record_residual_history)
      res.residual_history.push_back(next_residual);
    if (res.residual < opts.tolerance) {
      res.converged = true;
      return res;
    }
    {
      util::Stopwatch apply_watch;
      m->apply(r, z);
      res.precond_apply_seconds += apply_watch.seconds();
    }
    const double rz_next = dot(r, z);
    if (!(rz_next > 0.0) || !std::isfinite(rz_next)) {
      res.breakdown = true;  // z lost positivity: cannot form a new direction
      break;
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    update_direction(p, z, beta);
  }
  // Breakdown and iteration-exhaustion paths both report a finite residual.
  if (!std::isfinite(res.residual))
    res.residual = std::numeric_limits<double>::max();
  return res;
}

}  // namespace

CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            const CgOptions& opts,
                            const Preconditioner* precond,
                            const std::vector<double>* x0) {
  obs::Span span("cg.solve");
  CgResult res = run_pcg(a, b, opts, precond, x0);
  // Per-solve telemetry: one-shot registry writes after the iteration, so
  // the hot loop itself carries no instrumentation.
  if (obs::metrics_enabled()) {
    static obs::Counter& solves = obs::counter("lmmir_pcg_solves_total");
    static obs::Counter& iterations =
        obs::counter("lmmir_pcg_iterations_total");
    static obs::Counter& converged = obs::counter("lmmir_pcg_converged_total");
    static obs::Counter& breakdowns =
        obs::counter("lmmir_pcg_breakdowns_total");
    static obs::Counter& warm = obs::counter("lmmir_pcg_warm_starts_total");
    static obs::Histogram& iter_hist =
        obs::histogram("lmmir_pcg_iterations", obs::iteration_buckets());
    static obs::Gauge& setup_s =
        obs::gauge("lmmir_pcg_precond_setup_seconds_total");
    static obs::Gauge& apply_s =
        obs::gauge("lmmir_pcg_precond_apply_seconds_total");
    static obs::Counter& spmvs = obs::counter("lmmir_pcg_spmv_total");
    static obs::Counter& spmv_bytes =
        obs::counter("lmmir_pcg_spmv_bytes_total");
    static obs::Gauge& spmv_s = obs::gauge("lmmir_pcg_spmv_seconds_total");
    solves.add();
    iterations.add(res.iterations);
    if (res.converged) converged.add();
    if (res.breakdown) breakdowns.add();
    if (res.warm_started) warm.add();
    iter_hist.observe(static_cast<double>(res.iterations));
    setup_s.add(res.precond_setup_seconds);
    apply_s.add(res.precond_apply_seconds);
    spmvs.add(res.spmv_count);
    spmv_bytes.add(res.spmv_bytes);
    spmv_s.add(res.spmv_seconds);
    // Per-preconditioner breakdown, encoded in the metric name (the
    // registry is name-keyed; this is a post-solve lookup, not hot path).
    const std::string prefix =
        std::string("lmmir_pcg_") + to_string(res.preconditioner);
    obs::counter(prefix + "_solves_total").add();
    obs::counter(prefix + "_iterations_total").add(res.iterations);
  }
  return res;
}

}  // namespace lmmir::sparse
