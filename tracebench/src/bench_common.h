// Shared pieces of the trace-path benchmark: the metric catalogue, the
// result report, percentile selection, window slicing, the fixture's key
// material and a few process-level probes (CPU time, RSS, clock).
#pragma once

#include <cstdint>
#include <filesystem>
#include <future>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/credential.h"
#include "src/crypto/secret_key.h"
#include "src/tracing/config.h"
#include "src/transport/network.h"

namespace tracebench {

using et::Duration;
using et::TimePoint;
using et::kMillisecond;
using et::kSecond;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of untraced runs (`--trace 0`); BENCHMARK.json's end_to_end.
inline constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"},  {"setup_s", "s"},
    {"rss_mb", "MB"},
};

/// Metrics of traced runs (`--trace 1`); BENCHMARK.json's per_layer.
inline constexpr MetricSpec kPerLayer[] = {
    {"tracing.hosting_broker.busy_us_per_op", "us"},
    {"tracing.tracker.busy_us_per_op", "us"},
    {"pubsub.relay_broker.busy_us_per_op", "us"},
    {"tracing.entity.busy_us_per_op", "us"},
    {"tracing.entity_host.busy_us_per_op", "us"},
    {"pubsub.fleet_broker.busy_us_per_op", "us"},
    {"tracing.trace_filter.us_per_op", "us"},
    {"tracing.verify_pipeline.msgs_per_drain", "count"},
    {"tracing.verify_pipeline.dedup_ratio", "share"},
    {"tracing.token_cache.hit_ratio", "share"},
    {"transport.wait_us_per_op", "us"},
    {"transport.overhead_us_per_op", "us"},
    {"transport.loop_busy_ratio", "share"},
    {"transport.frames_per_op", "count"},
    {"transport.bytes_per_op", "B"},
    {"pubsub.materialized_per_op", "count"},
    {"pubsub.view_forwards_per_op", "count"},
    {"crypto.rsa_sign_us", "us"},
    {"crypto.rsa_verify_us", "us"},
    {"crypto.aes_encrypt_us", "us"},
    {"crypto.aes_decrypt_us", "us"},
    {"crypto.sha256_us", "us"},
    {"persist.ledger_append_us", "us"},
    {"tracing.token_verify_us", "us"},
    {"tracing.tracker.us_per_entry", "us"},
    {"tracing.emitter.entries_per_digest", "count"},
    {"tracing.emitter.suppressed_ratio", "share"},
    {"tracing.timer_wheel.armed", "count"},
    {"tracing.roster.bytes_per_entity", "B"},
    {"pubsub.interest_edges_max", "count"},
    {"discovery.tdn.busy_ms_setup", "ms"},
    {"pubsub.broker.busy_ms_setup", "ms"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.busy_coverage_pct", "%"},
    {"bench.traced_cpu_us_per_op", "us"},
};

/// The catalogue a run in this mode must print in full.
std::span<const MetricSpec> catalogue(bool traced);

/// Nearest-rank percentile of an ascending sample; q in (0, 1].
double nearest_rank(const std::vector<double>& sorted, double q);

/// Nearest-rank percentile q, or nullopt when fewer than `min_beyond`
/// samples rank after it — a p99 needs >= 1000 samples to have 10 beyond.
std::optional<double> supported_percentile(const std::vector<double>& sorted,
                                           double q,
                                           std::size_t min_beyond = 10);

double median(std::vector<double> v);

/// The slow side of per-slice (or per-build) figures: p90 of a cost, p10
/// of a rate. The host alternates contended spells with faster ones, in a
/// mix that drifts over minutes; the contended level recurs in nearly
/// every run, so its decile repeats where means, medians and quartiles
/// follow the mix. The decile (not the extreme) leaves out a lone
/// disturbed slice.
double slow_side_cost(std::vector<double> v);
double slow_side_rate(std::vector<double> v);

/// p99 when 10 samples lie beyond it, else the largest sample; 0 when empty.
double p99_or_max(std::vector<double> v);

/// Collects one run's metrics; units come from the catalogue.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// Records `name`; throws std::invalid_argument for a name outside this
  /// mode's catalogue or a non-finite value.
  void add(const std::string& name, double value);

  /// Catalogue names this report has not recorded yet.
  [[nodiscard]] std::vector<std::string> missing() const;

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool traced_;
  std::vector<Entry> entries_;
};

/// A timed window cut into slices at boundaries the workload marks (each
/// second, or every ten ping rounds). Every end-to-end figure is computed
/// per slice and the run reports a quantile across slices.
class Slices {
 public:
  /// Records a boundary: wall time, program CPU seconds, ops completed.
  void mark(std::int64_t t_ns, double cpu_s, double ops);
  /// Records a latency sample, bucketed by its stamp `t_ns`.
  void latency(std::int64_t t_ns, double ms);

  struct Figures {
    std::vector<double> ops_per_s;
    std::vector<double> cpu_us_per_op;
    std::vector<double> p50_ms;
  };
  /// Per-slice figures; a slice's p50 needs at least 20 samples.
  [[nodiscard]] Figures figures() const;
  /// slow_side_cost of the per-slice CPU per op; 0 without a slice.
  [[nodiscard]] double slow_side_cpu_us_per_op() const;
  [[nodiscard]] std::size_t count() const {
    return marks_.empty() ? 0 : marks_.size() - 1;
  }

 private:
  struct Mark {
    std::int64_t t_ns;
    double cpu_s;
    double ops;
  };
  std::vector<Mark> marks_;
  std::vector<std::pair<std::int64_t, double>> latencies_;
};

/// What a workload hands back to main().
struct Outcome {
  explicit Outcome(bool traced) : report(traced) {}
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // empty = every gate passed

  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }

  /// Prints the whole window's latency percentiles with the sample count,
  /// then reports latency_p50_ms, ops_per_s and cpu_us_per_op from
  /// `slices`. `open_loop`: ops_per_s is the window's delivered rate.
  /// The tail percentiles are per-layer metrics of the traced run: on the
  /// shared host they are set by interference spells and moved 35-65 %
  /// between runs, where the slices' p50 moved 6-8 %.
  void add_window(std::vector<double> samples_ms, const char* sample_kind,
                  const Slices& slices, double window_ops_per_s,
                  bool open_loop);

  /// Reports setup_s: the slow side of the run's build times.
  /// Workloads build half their deployments before the window and half
  /// after it, so the builds sample the host at both ends of the run.
  void add_setup(const std::vector<double>& setup_s);
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::filesystem::path run_dir;    // scratch for WALs and the TDN store
  std::filesystem::path spans_out;  // traced runs write their spans here
};

/// Key material of every deployment. Generated from a fixed seed,
/// independent of the workload seed, before any timed window: RSA key
/// generation costs 44-142 ms per key depending on the primes drawn.
struct Fixture {
  Fixture();

  et::crypto::CertificateAuthority ca;
  et::crypto::RsaKeyPair tdn_keys;
  /// Long-term pair shared by every entity, host and tracker identity
  /// (each still gets its own CA-issued credential).
  et::crypto::RsaKeyPair identity_keys;
  /// Delegate pair installed on every EntityHost (set_delegate_keys).
  et::crypto::RsaKeyPair fleet_delegate;
  /// AES-192 key for the cipher probes.
  et::crypto::SecretKey probe_key;

  [[nodiscard]] et::tracing::TrustAnchors anchors() const;
  [[nodiscard]] et::crypto::Identity identity(const std::string& id,
                                              TimePoint now) const;
  [[nodiscard]] et::crypto::Identity tdn_identity(TimePoint now) const;

 private:
  explicit Fixture(et::Rng rng);
};

/// Identities pre-exist, as in the paper: issued before any timed window,
/// credentials valid from `now` on the deployment's clock. Clients are
/// named `prefix` + index.
struct Identities {
  Identities(const Fixture& fx, const std::string& prefix, std::size_t count,
             TimePoint now);
  et::crypto::Identity tdn;
  et::crypto::Identity tracker;
  std::vector<et::crypto::Identity> clients;
};

/// The paper's crypto configuration (RSA-1024/SHA-1, AES-192) with §5.1
/// confidential traces and the §6.3 symmetric session.
et::tracing::TracingConfig paper_config();

/// Pins the calling thread to CPU number `slot` (mod count) of the set the
/// process started with; returns that CPU. Workloads move their threads on
/// to the next CPU at every slice and every build: the host's contention
/// differs from core to core and moves over seconds, and a thread left
/// where the scheduler put it can spend a whole run on one calm or one
/// contended core. New threads inherit their creator's CPU.
int pin_to_slot(std::size_t slot);

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();
/// Process user+system CPU time, all threads, in seconds.
double cpu_seconds();
/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds();
/// Resident set size in MiB.
double rss_mb();
/// Returns freed heap to the OS so RSS reflects live data.
void trim_heap();

/// Runs `fn` in `node`'s context and waits for its result: the only safe
/// way to read node-confined state while a threaded backend is running.
template <class F>
auto in_context(et::transport::NetworkBackend& net, et::transport::NodeId node,
                F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  auto result = done.get_future();
  net.post(node, [&] { done.set_value(fn()); });
  return result.get();
}

}  // namespace tracebench
