#include "bench_common.h"

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tracebench {

namespace {
constexpr std::uint64_t kFixtureSeed = 0x7EACEB0D5EEDull;
constexpr std::size_t kKeyBits = 1024;  // paper §6.1
constexpr Duration kCredentialLifetime = 24 * 3600 * kSecond;
}  // namespace

std::span<const MetricSpec> catalogue(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::optional<double> supported_percentile(const std::vector<double>& sorted,
                                           double q, std::size_t min_beyond) {
  if (sorted.empty()) return std::nullopt;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * n)));
  if (sorted.size() - std::min(rank, sorted.size()) < min_beyond) {
    return std::nullopt;
  }
  return sorted[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double slow_side_cost(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.9);
}

double slow_side_rate(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.1);
}

double p99_or_max(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return supported_percentile(v, 0.99).value_or(v.back());
}

void Report::add(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const MetricSpec& spec : catalogue(traced_)) {
    if (name != spec.name) continue;
    for (const Entry& e : entries_) {
      if (e.name == name) throw std::invalid_argument("duplicate " + name);
    }
    entries_.push_back({name, value, spec.unit});
    return;
  }
  throw std::invalid_argument("metric outside the catalogue: " + name);
}

std::vector<std::string> Report::missing() const {
  std::vector<std::string> out;
  for (const MetricSpec& spec : catalogue(traced_)) {
    const bool found =
        std::any_of(entries_.begin(), entries_.end(),
                    [&](const Entry& e) { return e.name == spec.name; });
    if (!found) out.emplace_back(spec.name);
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(num, sizeof(num), "%.17g", e.value);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Outcome::add_window(std::vector<double> samples_ms,
                         const char* sample_kind, const Slices& slices,
                         double window_ops_per_s, bool open_loop) {
  std::sort(samples_ms.begin(), samples_ms.end());
  const Slices::Figures f = slices.figures();
  gate(!samples_ms.empty() && !f.p50_ms.empty() && !f.cpu_us_per_op.empty(),
       "window too short: " + std::to_string(samples_ms.size()) + " " +
           sample_kind + " in " + std::to_string(slices.count()) + " slices");
  if (samples_ms.empty() || f.p50_ms.empty() || f.cpu_us_per_op.empty()) return;
  const auto p99 = supported_percentile(samples_ms, 0.99);
  std::printf("window: %zu %s; p50 %.4f ms, p90 %.4f ms, p99 %s ms\n",
              samples_ms.size(), sample_kind, nearest_rank(samples_ms, 0.5),
              nearest_rank(samples_ms, 0.9),
              p99 ? std::to_string(*p99).c_str() : "unsupported");
  const double rate = open_loop ? window_ops_per_s : slow_side_rate(f.ops_per_s);
  std::printf("slices: %zu; slow side p50 %.4f ms, %.6g ops/s, "
              "%.6g us/op; medians %.4f ms, %.6g ops/s, %.6g us/op\n",
              slices.count(), slow_side_cost(f.p50_ms), rate,
              slow_side_cost(f.cpu_us_per_op), median(f.p50_ms),
              median(f.ops_per_s), median(f.cpu_us_per_op));
  report.add("latency_p50_ms", slow_side_cost(f.p50_ms));
  report.add("ops_per_s", rate);
  report.add("cpu_us_per_op", slow_side_cost(f.cpu_us_per_op));
}

void Outcome::add_setup(const std::vector<double>& setup_s) {
  std::printf("setup_s: %zu builds, median %.4f s, slow side %.4f s\n",
              setup_s.size(), median(setup_s), slow_side_cost(setup_s));
  report.add("setup_s", slow_side_cost(setup_s));
}

Fixture::Fixture() : Fixture(et::Rng(kFixtureSeed)) {}

Fixture::Fixture(et::Rng rng)
    : ca("bench-ca", rng, kKeyBits),
      tdn_keys(et::crypto::rsa_generate(rng, kKeyBits)),
      identity_keys(et::crypto::rsa_generate(rng, kKeyBits)),
      fleet_delegate(et::crypto::rsa_generate(rng, kKeyBits)),
      probe_key(et::crypto::SecretKey::generate(
          rng, et::crypto::SymmetricAlg::kAes192Cbc)) {}

et::tracing::TrustAnchors Fixture::anchors() const {
  et::tracing::TrustAnchors a;
  a.ca_key = ca.public_key();
  a.tdn_key = tdn_keys.public_key;
  return a;
}

et::crypto::Identity Fixture::identity(const std::string& id,
                                       TimePoint now) const {
  et::crypto::Identity ident;
  ident.id = id;
  ident.keys = identity_keys;
  ident.credential =
      ca.issue(id, identity_keys.public_key, now, kCredentialLifetime);
  return ident;
}

et::crypto::Identity Fixture::tdn_identity(TimePoint now) const {
  et::crypto::Identity ident;
  ident.id = "tdn-0";
  ident.keys = tdn_keys;
  ident.credential =
      ca.issue(ident.id, tdn_keys.public_key, now, kCredentialLifetime);
  return ident;
}

Identities::Identities(const Fixture& fx, const std::string& prefix,
                       std::size_t count, TimePoint now)
    : tdn(fx.tdn_identity(now)), tracker(fx.identity("tracker0", now)) {
  for (std::size_t i = 0; i < count; ++i) {
    clients.push_back(fx.identity(prefix + std::to_string(i), now));
  }
}

et::tracing::TracingConfig paper_config() {
  et::tracing::TracingConfig c;
  c.ping_interval = 500 * kMillisecond;
  c.gauge_interval = 5 * kSecond;
  c.metrics_interval = 5 * kSecond;
  c.delegate_key_bits = kKeyBits;
  c.symmetric_alg = et::crypto::SymmetricAlg::kAes192Cbc;
  c.secure_traces = true;                                           // §5.1
  c.signing_mode = et::tracing::EntitySigningMode::kSymmetricSession;  // §6.3
  return c;
}

void Slices::mark(std::int64_t t_ns, double cpu_s, double ops) {
  marks_.push_back({t_ns, cpu_s, ops});
}

void Slices::latency(std::int64_t t_ns, double ms) {
  latencies_.emplace_back(t_ns, ms);
}

Slices::Figures Slices::figures() const {
  Figures f;
  std::vector<std::vector<double>> lat(count());
  for (const auto& [t, ms] : latencies_) {
    // Slice i spans [marks_[i], marks_[i + 1]).
    const auto it = std::upper_bound(
        marks_.begin(), marks_.end(), t,
        [](std::int64_t x, const Mark& m) { return x < m.t_ns; });
    const auto i = static_cast<std::size_t>(it - marks_.begin());
    if (i >= 1 && i <= lat.size()) lat[i - 1].push_back(ms);
  }
  for (std::size_t i = 0; i + 1 < marks_.size(); ++i) {
    const Mark& a = marks_[i];
    const Mark& b = marks_[i + 1];
    const double ops = b.ops - a.ops;
    if (b.t_ns > a.t_ns) {
      f.ops_per_s.push_back(ops / (static_cast<double>(b.t_ns - a.t_ns) / 1e9));
    }
    if (ops > 0) f.cpu_us_per_op.push_back((b.cpu_s - a.cpu_s) * 1e6 / ops);
    std::sort(lat[i].begin(), lat[i].end());
    if (supported_percentile(lat[i], 0.5)) {
      f.p50_ms.push_back(nearest_rank(lat[i], 0.5));
    }
  }
  return f;
}

double Slices::slow_side_cpu_us_per_op() const {
  const Figures f = figures();
  return f.cpu_us_per_op.empty() ? 0 : slow_side_cost(f.cpu_us_per_op);
}

int pin_to_slot(std::size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.empty()) return -1;
  const int cpu = cpus[slot % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // A refused pin leaves the thread where it was: placement, not results.
  (void)sched_setaffinity(0, sizeof(one), &one);
  return cpu;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

// The scheduler's runtime accounting: ns resolution, unlike getrusage's
// tick-sampled user/system split.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void trim_heap() { malloc_trim(0); }

}  // namespace tracebench
