// The deployment backbone every workload shares, and the per-layer metrics
// of a traced window, assembled the same way for every workload: per-node
// busy time from spans, grouped by the node's role, plus component
// counters as window deltas. Ratios take their bases from the components'
// own counters.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "span_tracer.h"
#include "src/discovery/tdn.h"
#include "src/persist/ledger.h"
#include "src/pubsub/broker.h"
#include "src/pubsub/topology.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"

namespace tracebench {

/// The traced run's decorator over `inner`, recording from the start so
/// setup spans feed *_busy_ms_setup; null on untraced runs.
std::unique_ptr<SpanTracer> make_tracer(et::transport::NetworkBackend& inner,
                                        bool traced);

/// What every deployment shares: a TDN with a persist directory, a broker
/// chain whose brokers carry the pipeline-backed trace filter (wrapped by
/// `tracer` on traced runs), and a WAL-backed TraceLedger and a
/// TracingBrokerService on every broker (all FsyncPolicy::kNever). Open
/// errors land in `errors`.
struct Backbone {
  Backbone(et::transport::NetworkBackend& net, SpanTracer* tracer,
           const Fixture& fx, const et::crypto::Identity& tdn_identity,
           const std::filesystem::path& dir,
           const et::tracing::TracingConfig& config,
           const et::transport::LinkParams& link, std::size_t broker_count,
           std::size_t interest_summary_depth);

  Backbone(const Backbone&) = delete;
  Backbone& operator=(const Backbone&) = delete;

  et::tracing::TrustAnchors anchors;
  std::unique_ptr<et::discovery::Tdn> tdn;
  std::unique_ptr<et::pubsub::Topology> topology;
  std::vector<et::pubsub::Broker*> brokers;
  std::vector<et::tracing::TraceFilterHandle> filters;
  std::vector<std::unique_ptr<et::persist::TraceLedger>> ledgers;
  std::vector<std::unique_ptr<et::tracing::TracingBrokerService>> services;
  std::vector<std::string> errors;
};

enum class Role : std::uint8_t {
  kOther,
  kEntity,         // TracedEntity clients and their discovery nodes
  kEntityHost,     // EntityHost clients and their discovery nodes
  kHostingBroker,  // brokers holding entity sessions
  kRelayBroker,    // brokers only routing traces towards the tracker
  kTracker,        // the tracker's client and discovery nodes
  kTdn,
};

/// Roles by node id. "broker0" holds every session and the other
/// "broker*" relay; nodes named `client_prefix`* are the clients, of
/// `client_role`; then "tracker*" and "tdn*".
std::vector<Role> node_roles(const std::vector<std::string>& names,
                             std::string_view client_prefix, Role client_role);

/// Counters summed over a deployment's brokers.
struct Counters {
  std::uint64_t drains = 0;
  std::uint64_t batched = 0;
  std::uint64_t keys_deduped = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t materialized = 0;
  std::uint64_t view_forwards = 0;
  std::uint64_t digests = 0;
  std::uint64_t digest_entries = 0;
  std::uint64_t traces_published = 0;
  std::uint64_t traces_suppressed = 0;

  [[nodiscard]] Counters operator-(const Counters& o) const;
};

/// Runs a callable in a broker's node context (a posted wait on threaded
/// backends, a direct call on the single-threaded simulator).
using ContextRunner =
    std::function<void(et::transport::NodeId, const std::function<void()>&)>;

Counters sample_counters(const Backbone& bb, const ContextRunner& run_in);

struct TracedWindow {
  double ops = 0;          // operations completed in the window
  double entries = 0;      // observations delivered to the tracker's handler
  double wall_s = 0;       // window length
  double cpu_s = 0;        // process CPU over the window
  /// Slow side (p90) of per-slice CPU per op, traced and (same
  /// deployment, recording off) untraced — the statistic cpu_us_per_op uses.
  double cpu_us_per_op = 0;
  double untraced_cpu_us_per_op = 0;
  double generator_lag_p99_ms = 0;
  std::vector<double> latency_ms;  // the window's latency samples
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  Counters delta;
  SpanSummary spans;
  std::vector<Role> roles;  // by node id
  std::size_t relay_brokers = 0;
  // Gauges read at the end of the window.
  std::uint64_t armed_timers = 0;
  double roster_bytes = 0;
  double entities = 0;
  double interest_edges_max = 0;
  // Setup-phase busy time of the TDN and of all brokers.
  double tdn_setup_ms = 0;
  double broker_setup_ms = 0;
};

/// Gates every workload shares, on a quiesced deployment: the tracker
/// rejected and failed to decrypt nothing, and every broker's ledger
/// audits clean with exactly one record per emitted trace or digest.
void check_trace_gates(const et::tracing::TrackerStats& tracker,
                       const Backbone& bb, Outcome& out);

/// Busy ms of the TDN and of all brokers over every setup span.
void setup_busy(const std::vector<Span>& spans, const std::vector<Role>& roles,
                TracedWindow& w);

/// Takes the tracer's spans, summarizes those starting in [t0, t1) into
/// `w` and writes them all to `spans_out` (if set; failing a gate when it
/// cannot).
void collect_spans(SpanTracer& tracer, std::int64_t t0, std::int64_t t1,
                   const std::filesystem::path& spans_out, TracedWindow& w,
                   Outcome& out);

/// Reads the end-of-window gauges: armed session timers and roster bytes
/// summed over the brokers, and the largest interest-edge count.
void read_gauges(const Backbone& bb, TracedWindow& w);

/// Appends to `gate_failures` when the window is too short for a p99
/// with 10 samples beyond it.
void add_layer_metrics(Report& report, const TracedWindow& w,
                       std::vector<std::string>& gate_failures);

}  // namespace tracebench
