#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "gen/began.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "spice/writer.hpp"
#include "tensor/microkernels.hpp"

namespace perfbench {

using namespace lmmir;

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  ++attempted_;
  if (ok) return;
  ++checks_failed_;
  ++failed_;
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::error(const std::string& what) {
  ++attempted_;
  ++failed_;
  correct_ = false;
  std::printf("ERROR: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

namespace {
bool is_layer_metric(const std::string& name) {
  // Per-layer metrics are named <module>.<metric>; end-to-end ones are not.
  return name.find('.') != std::string::npos;
}
}  // namespace

void Report::print(const Args& args) const {
  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_)
    std::printf("%-34s %18.6f  %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "   ", m.note.c_str());
  std::printf(
      "operations: attempted %zu, succeeded %zu, failed %zu "
      "(output checks: %zu run, %zu failed)\n",
      attempted_, attempted_ - failed_, failed_, checks_, checks_failed_);
  const bool avx2 =
      tensor::mk::compiled_with_avx2() && tensor::mk::cpu_has_avx2();
  std::printf(
      "config {\"workload\": \"%s\", \"seed\": %llu, \"input_fnv\": "
      "\"%016llx\", \"pool_threads\": %zu, \"host_cores\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"avx2\": %s, "
      "\"commit\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(fingerprint_),
      runtime::global_threads(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, __VERSION__, avx2 ? "true" : "false",
      args.commit.c_str(), args.seconds, args.trace ? 1 : 0);

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const Metric& m : metrics_) {
    if (is_layer_metric(m.name) != args.trace) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t whole_repeats(double seconds, double first_s) {
  if (first_s <= 0.0) return 1;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds / first_s)));
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  return fnv1a(s.data(), s.size(), h);
}

std::uint64_t fnv1a(const std::vector<float>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(float), h);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string make_netlist_text(double side_um, std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.name = "perfbench";
  cfg.width_um = cfg.height_um = side_um;
  cfg.seed = seed;
  cfg.use_default_stack();
  cfg.bump_pitch_um = std::max(6.0, side_um / 12.0);
  cfg.total_current = 0.06 * (side_um * side_um) / (64.0 * 64.0);
  return spice::write_netlist_string(gen::generate_pdn(cfg));
}

std::vector<serve::ValueEdit> load_sweep_edits(const spice::Netlist& base,
                                               double factor) {
  std::vector<serve::ValueEdit> edits;
  const auto& els = base.elements();
  for (std::size_t i = 0; i < els.size(); ++i)
    if (els[i].type == spice::ElementType::CurrentSource)
      edits.push_back({i, els[i].value * factor});
  return edits;
}

void apply_edits(spice::Netlist& nl, const std::vector<serve::ValueEdit>& edits) {
  for (const serve::ValueEdit& e : edits)
    nl.set_element_value(e.element_index, e.value);
}

std::map<std::string, std::vector<double>> trace_span_ms(
    const std::string& path) {
  std::map<std::string, std::vector<double>> out;
  std::ifstream in(path);
  std::string line;
  char name[128];
  while (std::getline(in, line)) {
    double dur = 0.0;  // us
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%*[0-9],\"ts\":%*[^,],\"dur\":%lf",
                    name, &dur) != 2)
      continue;
    const std::string n = name;
    if (n.rfind("bench.", 0) == 0) out[n.substr(6)].push_back(dur / 1e3);
  }
  return out;
}

double pool_busy_share(double wall_s) {
  const runtime::ThreadPool* pool = runtime::global_pool();
  if (!pool || pool->size() == 0 || wall_s <= 0.0) return 0.0;
  const double busy_ns = static_cast<double>(
      obs::counter("lmmir_pool_busy_ns_total").value());
  return busy_ns / (wall_s * 1e9 * static_cast<double>(pool->size()));
}

}  // namespace perfbench
