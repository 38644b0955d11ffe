#pragma once
// Shared plumbing of the repo benchmark: run arguments, the result
// report, statistics, the input generator and the traced-span summary.
// Every workload drives lmmir only through its public API.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/session.hpp"
#include "spice/netlist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // trace files and scratch corpora
  std::string commit = "unknown";
};

/// Result of one run: failure accounting, metrics, and the final JSON line.
class Report {
 public:
  /// Record one operation of the timed phase.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Record one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Record an error that invalidates the run (a set-up or probe step
  /// that threw).
  void error(const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Fingerprint of the generated inputs (FNV-1a over their bytes).
  void fingerprint(std::uint64_t fnv) { fingerprint_ = fnv; }

  bool correct() const { return correct_; }
  /// Human-readable table + config line, then the result JSON last.
  void print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checks_ = 0;
  std::size_t checks_failed_ = 0;
  bool correct_ = true;
  std::uint64_t fingerprint_ = 0;
};

// ---------------------------------------------------------------- stats
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double peak_rss_mb();

/// How many whole repeats of a unit of work that took `first_s` fill a run
/// of `seconds` (at least 1): fixed up front from the first repeat, so the
/// count does not flip on timing noise near the end of the run.
std::size_t whole_repeats(double seconds, double first_s);

/// FNV-1a 64 over a byte run, chained from `h`.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnvBasis);
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvBasis);
std::uint64_t fnv1a(const std::vector<float>& v, std::uint64_t h = kFnvBasis);

/// Deterministic 64-bit mix of a seed with a stream index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --------------------------------------------------------------- inputs
/// SPICE text of a generated PDN: square die of `side_um`, the default
/// four-layer stack, bump pitch and total current scaled with the side.
std::string make_netlist_text(double side_um, std::uint64_t seed);

/// The ECO edit the probes apply: every current source of `base` scaled
/// by `factor` (a load sweep: rhs-only for the solver, two feature
/// channels dirty).
std::vector<lmmir::serve::ValueEdit> load_sweep_edits(
    const lmmir::spice::Netlist& base, double factor);
void apply_edits(lmmir::spice::Netlist& nl,
                 const std::vector<lmmir::serve::ValueEdit>& edits);

// ---------------------------------------------------------------- trace
/// Duration (ms) of every benchmark span ("bench.*") in a Chrome trace
/// written by obs::write_trace, one entry per occurrence, keyed by span
/// name without the "bench." prefix.  Every span read this way is a leaf
/// among the benchmark spans, so its duration is the layer's self time.
std::map<std::string, std::vector<double>> trace_span_ms(
    const std::string& path);

/// lmmir_pool_busy_ns_total over (wall × pool workers), from the global
/// metrics registry; call after a phase run with metrics reset + enabled.
double pool_busy_share(double wall_s);

}  // namespace perfbench
