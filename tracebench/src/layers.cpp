#include "layers.h"

#include <algorithm>
#include <limits>

namespace tracebench {

namespace {
constexpr std::uint64_t kTdnSeed = 0x7D4;
constexpr std::uint64_t kServiceSeed = 0x5E471CE;
}  // namespace

std::unique_ptr<SpanTracer> make_tracer(et::transport::NetworkBackend& inner,
                                        bool traced) {
  if (!traced) return nullptr;
  auto tracer = std::make_unique<SpanTracer>(inner);
  tracer->set_recording(true);
  return tracer;
}

Backbone::Backbone(et::transport::NetworkBackend& net, SpanTracer* tracer,
                   const Fixture& fx, const et::crypto::Identity& tdn_identity,
                   const std::filesystem::path& dir,
                   const et::tracing::TracingConfig& config,
                   const et::transport::LinkParams& link,
                   std::size_t broker_count,
                   std::size_t interest_summary_depth)
    : anchors(fx.anchors()) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  et::discovery::Tdn::Options to;
  to.identity = tdn_identity;
  to.ca_key = fx.ca.public_key();
  to.seed = kTdnSeed;
  to.persist_dir = (dir / "tdn").string();
  to.fsync = et::persist::FsyncPolicy::kNever;
  tdn = std::make_unique<et::discovery::Tdn>(net, std::move(to));

  topology = std::make_unique<et::pubsub::Topology>(net);
  brokers = topology->make_chain(
      broker_count, link, "broker", [&](const std::string& name) {
        et::pubsub::Broker::Options o;
        o.name = name;
        o.interest_summary_depth = interest_summary_depth;
        filters.push_back(
            et::tracing::install_trace_filter(o, anchors, net, config));
        if (tracer) o.message_filter = tracer->wrap_filter(o.message_filter);
        return o;
      });
  for (std::size_t i = 0; i < brokers.size(); ++i) {
    auto ledger = std::make_unique<et::persist::TraceLedger>();
    const et::Status s = ledger->open(
        {(dir / ("ledger-" + std::to_string(i) + ".wal")).string(),
         et::persist::FsyncPolicy::kNever});
    if (!s.is_ok()) errors.push_back("ledger open: " + s.to_string());
    services.push_back(std::make_unique<et::tracing::TracingBrokerService>(
        *brokers[i], anchors, config, kServiceSeed + i));
    services.back()->set_trace_ledger(ledger.get());
    ledgers.push_back(std::move(ledger));
  }
}

std::vector<Role> node_roles(const std::vector<std::string>& names,
                             std::string_view client_prefix, Role client_role) {
  std::vector<Role> roles;
  for (const std::string& name : names) {
    const std::string_view n = name;
    if (n == "broker0") {
      roles.push_back(Role::kHostingBroker);
    } else if (n.starts_with("broker")) {
      roles.push_back(Role::kRelayBroker);
    } else if (n.starts_with(client_prefix)) {
      roles.push_back(client_role);
    } else if (n.starts_with("tracker")) {
      roles.push_back(Role::kTracker);
    } else if (n.starts_with("tdn")) {
      roles.push_back(Role::kTdn);
    } else {
      roles.push_back(Role::kOther);
    }
  }
  return roles;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.drains = drains - o.drains;
  d.batched = batched - o.batched;
  d.keys_deduped = keys_deduped - o.keys_deduped;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_lookups = cache_lookups - o.cache_lookups;
  d.materialized = materialized - o.materialized;
  d.view_forwards = view_forwards - o.view_forwards;
  d.digests = digests - o.digests;
  d.digest_entries = digest_entries - o.digest_entries;
  d.traces_published = traces_published - o.traces_published;
  d.traces_suppressed = traces_suppressed - o.traces_suppressed;
  return d;
}

Counters sample_counters(const Backbone& bb, const ContextRunner& run_in) {
  const auto& brokers = bb.brokers;
  const auto& services = bb.services;
  Counters c;
  for (std::size_t i = 0; i < brokers.size(); ++i) {
    const auto ps = bb.filters[i].pipeline_stats();
    c.drains += ps.drains;
    c.batched += ps.batched;
    c.keys_deduped += ps.keys_deduped;
    const auto cs = bb.filters[i].cache_stats();
    c.cache_hits += cs.hits + cs.negative_hits;
    c.cache_lookups += cs.hits + cs.negative_hits + cs.misses + cs.expired;
    const auto bs = brokers[i]->stats();
    c.materialized += bs.materialized;
    c.view_forwards += bs.view_forwards;
    // Emitter and service counters are confined to the broker's context.
    run_in(brokers[i]->node(), [&] {
      const auto& es = services[i]->emitter_stats();
      c.digests += es.digests_published;
      c.digest_entries += es.digest_entries;
      c.traces_published += es.traces_published;
      c.traces_suppressed += services[i]->stats().traces_suppressed_no_interest;
    });
  }
  return c;
}

void check_trace_gates(const et::tracing::TrackerStats& tracker,
                       const Backbone& bb, Outcome& out) {
  const auto& ledgers = bb.ledgers;
  out.gate(tracker.traces_rejected == 0,
           "tracker rejected " + std::to_string(tracker.traces_rejected));
  out.gate(tracker.undecryptable == 0,
           "tracker could not decrypt " + std::to_string(tracker.undecryptable));
  for (std::size_t i = 0; i < ledgers.size(); ++i) {
    const auto violations = et::persist::LedgerAuditor::verify_all(*ledgers[i]);
    out.gate(violations.empty(), "ledger " + std::to_string(i) + ": " +
                                     (violations.empty() ? "" : violations[0]));
    const auto& es = bb.services[i]->emitter_stats();
    const std::uint64_t emitted = es.traces_published + es.digests_published;
    out.gate(ledgers[i]->total_records() == emitted,
             "ledger " + std::to_string(i) + " holds " +
                 std::to_string(ledgers[i]->total_records()) +
                 " records for " + std::to_string(emitted) + " traces");
  }
}

void setup_busy(const std::vector<Span>& spans, const std::vector<Role>& roles,
                TracedWindow& w) {
  const SpanSummary s =
      summarize(spans, std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max(), roles.size());
  auto ms_where = [&](Role r) {
    return static_cast<double>(s.busy_where([&](et::transport::NodeId id) {
             return roles[id] == r;
           })) /
           1e6;
  };
  w.tdn_setup_ms = ms_where(Role::kTdn);
  w.broker_setup_ms =
      ms_where(Role::kHostingBroker) + ms_where(Role::kRelayBroker);
}

void collect_spans(SpanTracer& tracer, std::int64_t t0, std::int64_t t1,
                   const std::filesystem::path& spans_out, TracedWindow& w,
                   Outcome& out) {
  const std::vector<Span> spans = tracer.take_spans();
  w.spans = summarize(spans, t0, t1, w.roles.size());
  if (!spans_out.empty() &&
      !write_spans(spans_out, spans, tracer.node_names())) {
    out.gate(false, "cannot write " + spans_out.string());
  }
}

void read_gauges(const Backbone& bb, TracedWindow& w) {
  for (std::size_t i = 0; i < bb.brokers.size(); ++i) {
    w.armed_timers += bb.services[i]->timer_stats().armed_now;
    w.roster_bytes += static_cast<double>(bb.services[i]->roster_bytes());
    w.interest_edges_max =
        std::max(w.interest_edges_max,
                 static_cast<double>(bb.brokers[i]->interest_edges()));
  }
}

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void add_layer_metrics(Report& report, const TracedWindow& w,
                       std::vector<std::string>& gate_failures) {
  const double ops = std::max(1.0, w.ops);
  auto busy_us = [&](Role r) {
    return static_cast<double>(w.spans.busy_where([&](et::transport::NodeId id) {
             return id < w.roles.size() && w.roles[id] == r;
           })) /
           1e3;
  };
  const double all_busy_us =
      static_cast<double>(w.spans.busy_where([](et::transport::NodeId) {
        return true;
      })) /
      1e3;
  const double hosting = busy_us(Role::kHostingBroker);
  const double relay = busy_us(Role::kRelayBroker);
  const double tracker = busy_us(Role::kTracker);
  const double cpu_us = w.cpu_s * 1e6;

  report.add("tracing.hosting_broker.busy_us_per_op", hosting / ops);
  report.add("tracing.tracker.busy_us_per_op", tracker / ops);
  report.add("pubsub.relay_broker.busy_us_per_op",
             relay / ops / static_cast<double>(std::max<std::size_t>(1, w.relay_brokers)));
  report.add("tracing.entity.busy_us_per_op", busy_us(Role::kEntity) / ops);
  report.add("tracing.entity_host.busy_us_per_op",
             busy_us(Role::kEntityHost) / ops);
  report.add("pubsub.fleet_broker.busy_us_per_op", (hosting + relay) / ops);
  report.add("tracing.trace_filter.us_per_op",
             static_cast<double>(w.spans.filter_ns) / 1e3 / ops);
  report.add("tracing.verify_pipeline.msgs_per_drain",
             ratio(static_cast<double>(w.delta.batched),
                   static_cast<double>(w.delta.drains)));
  report.add("tracing.verify_pipeline.dedup_ratio",
             ratio(static_cast<double>(w.delta.keys_deduped),
                   static_cast<double>(w.delta.batched)));
  report.add("tracing.token_cache.hit_ratio",
             ratio(static_cast<double>(w.delta.cache_hits),
                   static_cast<double>(w.delta.cache_lookups)));
  report.add("transport.wait_us_per_op",
             static_cast<double>(w.spans.packet_wait_ns) / 1e3 / ops);
  report.add("transport.overhead_us_per_op", (cpu_us - all_busy_us) / ops);
  report.add("transport.loop_busy_ratio", ratio(all_busy_us, w.wall_s * 1e6));
  report.add("transport.frames_per_op", static_cast<double>(w.frames) / ops);
  report.add("transport.bytes_per_op", static_cast<double>(w.bytes) / ops);
  report.add("pubsub.materialized_per_op",
             static_cast<double>(w.delta.materialized) / ops);
  report.add("pubsub.view_forwards_per_op",
             static_cast<double>(w.delta.view_forwards) / ops);
  report.add("tracing.tracker.us_per_entry", ratio(tracker, w.entries));
  report.add("tracing.emitter.entries_per_digest",
             ratio(static_cast<double>(w.delta.digest_entries),
                   static_cast<double>(w.delta.digests)));
  report.add("tracing.emitter.suppressed_ratio",
             ratio(static_cast<double>(w.delta.traces_suppressed),
                   static_cast<double>(w.delta.traces_suppressed +
                                       w.delta.traces_published +
                                       w.delta.digest_entries)));
  report.add("tracing.timer_wheel.armed", static_cast<double>(w.armed_timers));
  report.add("tracing.roster.bytes_per_entity",
             ratio(w.roster_bytes, w.entities));
  report.add("pubsub.interest_edges_max", w.interest_edges_max);
  report.add("discovery.tdn.busy_ms_setup", w.tdn_setup_ms);
  report.add("pubsub.broker.busy_ms_setup", w.broker_setup_ms);
  std::vector<double> lat = w.latency_ms;
  std::sort(lat.begin(), lat.end());
  const auto p90 = supported_percentile(lat, 0.9);
  const auto p99 = supported_percentile(lat, 0.99);
  if (!p99) {
    gate_failures.push_back("traced window has " + std::to_string(lat.size()) +
                            " latency samples; a p99 needs 1000");
  }
  report.add("bench.latency_p90_ms", p90.value_or(0));
  report.add("bench.latency_p99_ms", p99.value_or(0));
  report.add("bench.generator_lag_p99_ms", w.generator_lag_p99_ms);
  report.add("bench.trace_overhead_pct",
             (ratio(w.cpu_us_per_op, w.untraced_cpu_us_per_op) - 1.0) * 100.0);
  report.add("bench.busy_coverage_pct", ratio(all_busy_us, cpu_us) * 100.0);
  report.add("bench.traced_cpu_us_per_op", w.cpu_us_per_op);
}

}  // namespace tracebench
