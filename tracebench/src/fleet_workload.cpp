// host_fleet: 10^5 entities on EntityHosts, 512 per host, over an
// 8-broker chain on VirtualTimeNetwork with the DESIGN.md §14 levers
// (per-host digests, session timer wheel, interest summaries) at the
// paper's crypto configuration. Every host sits on broker 0, brokers 1-7
// only relay, and one tracker on broker 7 follows a fixed sample of hosts
// — the same roles as the socket workloads' chain. (Hosts spread over
// several brokers would each be registered at every hosting broker: with
// interest summaries, a broker's interest-response edge
// Constrained/Traces/Broker/Subscribe-Only/# also pulls in the batch
// registrations published at its neighbours, and the stale sessions fail.)
//
// RSA cost is spread over 512-entry digests, so per-entity logic
// dominates: timer wheel, roster, liveness bitmaps, digest build and
// expansion, no-interest suppression. Steady state is a fixed number of
// ping rounds (a fixed virtual span), timed in wall-clock and CPU time;
// setup_s is the registration storm (topic creation, batch registration,
// delegation, tracker attach), the write path beside the steady read path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "layers.h"
#include "probes.h"
#include "span_tracer.h"
#include "src/tracing/entity_host.h"
#include "src/tracing/tracker.h"
#include "src/transport/virtual_network.h"
#include "workloads.h"

namespace tracebench {
namespace {

namespace fs = std::filesystem;
namespace tr = et::tracing;
namespace tp = et::transport;

// Workload constants: fixed here, never derived from a measurement.
constexpr std::size_t kEntities = 100000;
constexpr std::size_t kPerHost = 512;
constexpr std::size_t kHosts = (kEntities + kPerHost - 1) / kPerHost;
constexpr std::size_t kBrokers = 8;
constexpr Duration kRound = 1 * kSecond;        // ping and digest interval
constexpr Duration kTick = 100 * kMillisecond;  // timer wheel tick
constexpr std::size_t kTicksPerRound = kRound / kTick;
/// Hosts register in one wave per tick of a round, so every tick carries
/// the same share of pings; each wave holds one tracked host.
constexpr std::size_t kWaves = kTicksPerRound;
/// Digest cap in rounds. One: each tracked host's digest fills, and
/// flushes, with its round's heartbeats, so every tick carries the same
/// work (E16's cap of two would alternate heavy and light ticks).
constexpr std::size_t kRoundsPerDigest = 1;
constexpr int kWarmupRounds = 2;
/// Rounds per slice of a window: 100 ticks, enough for a per-slice p90.
constexpr std::size_t kRoundsPerSlice = 10;
/// Window length in ping rounds per second of --seconds, so a run's
/// virtual span is fixed by its arguments, never by how fast the host
/// runs (a 4-core 2 GHz host runs ~8 rounds per wall second).
constexpr double kRoundsPerSecond = 8;
/// Gauge probes and metrics reports stay off: one RSA signature per
/// session per round that E16 does not need, since trackers announce
/// interest on track(). Every run's virtual span stays far below this.
constexpr Duration kGaugesOff = 3600 * kSecond;
/// Deployments an untraced run builds for setup_s, half before the window
/// and half after it (one build takes ~2 s); ten, so the slow side (p90)
/// is not the single slowest build.
constexpr int kSetupBuilds = 10;
constexpr int kReadyTicks = 600;  // bound on waiting for callbacks
constexpr std::uint64_t kNetSeed = 20260809;
constexpr std::uint64_t kHostSeed = 0x4057000;
constexpr std::uint64_t kTrackerSeed = 0x7EAC4E5;

tr::TracingConfig fleet_config() {
  tr::TracingConfig c = paper_config();
  c.ping_interval = kRound;
  c.min_ping_interval = 250 * kMillisecond;
  c.gauge_interval = kGaugesOff;
  c.metrics_interval = kGaugesOff;
  c.interest_ttl_rounds = 1 << 20;
  c.token_lifetime = 7200 * kSecond;
  c.topic_lifetime = 7200 * kSecond;
  c.digest_interval = kRound;
  c.digest_max_entries = kRoundsPerDigest * kPerHost;
  c.timer_wheel_tick = kTick;
  return c;
}

std::size_t members_of(std::size_t host) {
  return std::min(kPerHost, kEntities - host * kPerHost);
}

/// Registration schedule: wave w holds tracked host w * (kHosts / kWaves)
/// plus a seeded share of the others — the seed decides which host
/// registers, and so pings, when.
std::vector<std::vector<std::size_t>> make_waves(std::uint64_t seed,
                                                 std::vector<std::size_t>& tracked) {
  std::vector<std::vector<std::size_t>> waves(kWaves);
  std::vector<bool> is_tracked(kHosts, false);
  tracked.clear();
  for (std::size_t w = 0; w < kWaves; ++w) {
    const std::size_t h = w * (kHosts / kWaves);
    tracked.push_back(h);
    is_tracked[h] = true;
    waves[w].push_back(h);
  }
  std::vector<std::size_t> rest;
  for (std::size_t h = 0; h < kHosts; ++h) {
    if (!is_tracked[h]) rest.push_back(h);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(rest.begin(), rest.end(), rng);
  for (std::size_t i = 0; i < rest.size(); ++i) waves[i % kWaves].push_back(rest[i]);
  return waves;
}

tp::LinkParams fleet_link() {
  tp::LinkParams link = tp::LinkParams::ideal_profile();
  link.base_latency = 1 * kMillisecond;
  return link;
}

struct FleetDeployment {
  FleetDeployment(const Fixture& fx, const Identities& ids,
                  const fs::path& dir, bool traced)
      : vnet(kNetSeed),
        tracer(make_tracer(vnet, traced)),
        net(tracer ? static_cast<tp::NetworkBackend*>(tracer.get()) : &vnet),
        config(fleet_config()),
        link(fleet_link()),
        bb(*net, tracer.get(), fx, ids.tdn, dir, config, link, kBrokers,
           /*interest_summary_depth=*/4),  // §14 hierarchical aggregation
        errors(bb.errors) {
    for (std::size_t h = 0; h < kHosts; ++h) {
      auto host = std::make_unique<tr::EntityHost>(
          *net, ids.clients[h], bb.anchors, config, kHostSeed + h);
      host->set_delegate_keys(fx.fleet_delegate);
      host->attach_tdn(bb.tdn->node(), link);
      host->connect_broker(bb.brokers.front()->node(), link);
      hosts.push_back(std::move(host));
    }
    tracker = std::make_unique<tr::Tracker>(*net, ids.tracker, bb.anchors,
                                            kTrackerSeed);
    tracker->attach_tdn(bb.tdn->node(), link);
    tracker->connect_broker(bb.brokers.back()->node(), link);
  }

  FleetDeployment(const FleetDeployment&) = delete;
  FleetDeployment& operator=(const FleetDeployment&) = delete;

  /// The registration storm, one wave per tick, then the tracker attach.
  void register_and_track(const std::vector<std::vector<std::size_t>>& waves,
                          const std::vector<std::size_t>& tracked_hosts) {
    std::size_t ready = 0;
    std::size_t failed = 0;
    for (const auto& wave : waves) {
      for (const std::size_t h : wave) {
        std::vector<std::string> members;
        members.reserve(members_of(h));
        for (std::size_t i = 0; i < members_of(h); ++i) {
          members.push_back("h" + std::to_string(h) + ".e" + std::to_string(i));
        }
        hosts[h]->register_entities({}, std::move(members),
                                    [&](const et::Status& s) {
                                      s.is_ok() ? ++ready : ++failed;
                                    });
      }
      vnet.run_for(kTick);
    }
    for (int i = 0; i < kReadyTicks && ready + failed < kHosts; ++i) {
      vnet.run_for(kTick);
    }
    if (ready != kHosts) {
      errors.push_back(std::to_string(ready) + "/" + std::to_string(kHosts) +
                       " hosts registered");
      return;
    }
    std::size_t tracking = 0;
    for (const std::size_t h : tracked_hosts) {
      tracker->track_host(
          hosts[h]->host_id(), tr::kCatAllUpdates,
          [this](const tr::TracePayload&, const et::pubsub::Message& m) {
            ++expanded;
            if (capture && !captured) {
              captured = m;
              captured_at = vnet.now();
            }
          },
          [&](const et::Status& s) {
            if (s.is_ok()) ++tracking;
          });
      tracked_members += members_of(h);
    }
    for (int i = 0; i < kReadyTicks && tracking < tracked_hosts.size(); ++i) {
      vnet.run_for(kTick);
    }
    if (tracking != tracked_hosts.size()) {
      errors.push_back(std::to_string(tracking) + "/" +
                       std::to_string(tracked_hosts.size()) +
                       " track_host calls completed");
    }
  }

  std::uint64_t entity_rounds() const {
    std::uint64_t total = 0;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      total += hosts[h]->stats().pings_answered * members_of(h);
    }
    return total;
  }

  ContextRunner runner() {
    return [](tp::NodeId, const std::function<void()>& fn) { fn(); };
  }

  tp::VirtualTimeNetwork vnet;
  std::unique_ptr<SpanTracer> tracer;
  tp::NetworkBackend* net;
  tr::TracingConfig config;
  tp::LinkParams link;
  Backbone bb;
  std::vector<std::unique_ptr<tr::EntityHost>> hosts;
  std::unique_ptr<tr::Tracker> tracker;
  std::size_t tracked_members = 0;
  std::uint64_t expanded = 0;
  bool capture = false;
  std::optional<et::pubsub::Message> captured;
  et::TimePoint captured_at = 0;
  std::vector<std::string> errors;
};

struct Window {
  std::vector<double> tick_ms;  // wall time per tick (latency samples)
  Slices slices;                // kRoundsPerSlice rounds each
  std::vector<double> gap_ms;   // benchmark time between ticks
  std::uint64_t rounds = 0;
  std::uint64_t entity_rounds = 0;
  std::uint64_t expanded = 0;
  double cpu_s = 0;
  double wall_s = 0;
};

/// Ping rounds of a window `seconds` long: whole slices, so a slice is
/// also a whole number of digest periods (a digest carries
/// kRoundsPerDigest rounds) and expansions count exactly.
std::uint64_t window_rounds(double seconds) {
  const auto slices = static_cast<std::uint64_t>(
      std::ceil(seconds * kRoundsPerSecond / kRoundsPerSlice));
  return std::max<std::uint64_t>(1, slices) * kRoundsPerSlice;
}

/// Runs `rounds` ping rounds, timing each tick and each slice; each slice
/// runs on the next CPU.
Window run_rounds(FleetDeployment& d, std::uint64_t rounds) {
  Window w;
  pin_to_slot(0);
  const std::uint64_t er0 = d.entity_rounds();
  const std::uint64_t ex0 = d.expanded;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::int64_t last_end = t0;
  w.slices.mark(t0, cpu0, 0);
  while (w.rounds < rounds) {
    for (std::size_t t = 0; t < kTicksPerRound; ++t) {
      const std::int64_t a = now_ns();
      w.gap_ms.push_back(static_cast<double>(a - last_end) / 1e6);
      d.vnet.run_for(kTick);
      last_end = now_ns();
      w.tick_ms.push_back(static_cast<double>(last_end - a) / 1e6);
      w.slices.latency(a, w.tick_ms.back());
    }
    ++w.rounds;
    if (w.rounds % kRoundsPerSlice != 0) continue;
    w.slices.mark(last_end, cpu_seconds(),
                  static_cast<double>(d.entity_rounds() - er0));
    pin_to_slot(w.rounds / kRoundsPerSlice);
  }
  w.cpu_s = cpu_seconds() - cpu0;
  w.wall_s = static_cast<double>(last_end - t0) / 1e9;
  w.entity_rounds = d.entity_rounds() - er0;
  w.expanded = d.expanded - ex0;
  return w;
}

/// Gates of one measured window: every entity kept live every round and
/// every tracked member observed exactly once per round.
void check_window(const FleetDeployment& d, const Window& w, Outcome& out) {
  const std::uint64_t attempted = w.rounds * kEntities;
  out.attempted += attempted;
  out.failed += attempted > w.entity_rounds ? attempted - w.entity_rounds : 0;
  out.gate(w.entity_rounds == attempted,
           "entity-rounds " + std::to_string(w.entity_rounds) + " != " +
               std::to_string(attempted));
  const std::uint64_t expected = d.tracked_members * w.rounds;
  out.gate(w.expanded == expected, "expanded entries " +
                                       std::to_string(w.expanded) + " != " +
                                       std::to_string(expected));
}

void check_gates(const FleetDeployment& d, Outcome& out) {
  std::uint64_t suspicions = 0, failures = 0;
  for (const auto& s : d.bb.services) {
    suspicions += s->stats().suspicions;
    failures += s->stats().failures;
  }
  out.gate(suspicions == 0 && failures == 0,
           "suspicion/failure traces: " + std::to_string(suspicions) + "/" +
               std::to_string(failures));
  out.gate(d.vnet.now() < kGaugesOff,
           "the virtual span reached the first gauge round");
  check_trace_gates(d.tracker->stats(), d.bb, out);
}

}  // namespace

Outcome run_host_fleet(const Fixture& fx, const RunOptions& opt) {
  Outcome out(opt.traced);
  std::vector<std::size_t> tracked;
  const auto waves = make_waves(opt.seed, tracked);
  const Identities ids(fx, "h", kHosts, /*now=*/0);

  std::unique_ptr<FleetDeployment> dep;
  std::vector<double> setup_s;
  // Builds `n` deployments in turn and keeps the last one, registered.
  const auto build_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      dep.reset();
      trim_heap();
      pin_to_slot(setup_s.size());
      const std::int64_t t0 = now_ns();
      dep = std::make_unique<FleetDeployment>(
          fx, ids, opt.run_dir / ("fleet-" + std::to_string(setup_s.size())),
          opt.traced);
      dep->register_and_track(waves, tracked);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      std::printf("setup: registration storm %.3f s\n", setup_s.back());
      if (!dep->errors.empty()) {
        out.gate(false, dep->errors.front());
        return false;
      }
    }
    return true;
  };
  const auto warm_up = [&] {
    for (int i = 0; i < kWarmupRounds; ++i) {
      for (std::size_t t = 0; t < kTicksPerRound; ++t) dep->vnet.run_for(kTick);
    }
    dep->capture = true;
  };

  if (!opt.traced) {
    if (!build_n(kSetupBuilds / 2)) return out;
    warm_up();
    // Footprint after setup and warm-up, before the window: the ledgers
    // keep every digest in memory.
    const double rss = rss_mb();
    const Window w = run_rounds(*dep, window_rounds(opt.seconds));
    check_window(*dep, w, out);
    check_gates(*dep, out);
    out.add_window(w.tick_ms, "ticks of 100 ms virtual time", w.slices, 0,
                   /*open_loop=*/false);
    out.report.add("rss_mb", rss);
    if (!build_n(kSetupBuilds / 2)) return out;
    out.add_setup(setup_s);
    return out;
  }

  if (!build_n(1)) return out;
  FleetDeployment& d = *dep;
  TracedWindow tw;
  tw.roles = node_roles(d.tracer->node_names(), "h", Role::kEntityHost);
  setup_busy(d.tracer->take_spans(), tw.roles, tw);
  d.tracer->set_recording(false);
  warm_up();

  const Window ref = run_rounds(d, window_rounds(opt.seconds / 2));
  tw.untraced_cpu_us_per_op = ref.slices.slow_side_cpu_us_per_op();
  check_window(d, ref, out);

  const Counters c0 = sample_counters(d.bb, d.runner());
  const std::uint64_t f0 = d.tracer->frames();
  const std::uint64_t b0 = d.tracer->bytes();
  d.tracer->set_recording(true);
  const std::int64_t t0 = now_ns();
  const Window w = run_rounds(d, window_rounds(opt.seconds));
  const std::int64_t t1 = now_ns();
  d.tracer->set_recording(false);
  const Counters c1 = sample_counters(d.bb, d.runner());
  check_window(d, w, out);
  check_gates(d, out);

  collect_spans(*d.tracer, t0, t1, opt.spans_out, tw, out);
  tw.ops = static_cast<double>(w.entity_rounds);
  tw.entries = static_cast<double>(w.expanded);
  tw.latency_ms = w.tick_ms;
  tw.wall_s = static_cast<double>(t1 - t0) / 1e9;
  tw.cpu_s = w.cpu_s;
  tw.cpu_us_per_op = w.slices.slow_side_cpu_us_per_op();
  tw.frames = d.tracer->frames() - f0;
  tw.bytes = d.tracer->bytes() - b0;
  tw.delta = c1 - c0;
  tw.relay_brokers = kBrokers - 1;
  tw.generator_lag_p99_ms = p99_or_max(w.gap_ms);
  read_gauges(d.bb, tw);
  tw.entities = kEntities;
  add_layer_metrics(out.report, tw, out.gate_failures);

  probe_captured(d.captured, d.captured_at, fx.fleet_delegate.private_key,
                 d.bb.ledgers, fx, opt.run_dir, out);
  return out;
}

}  // namespace tracebench
