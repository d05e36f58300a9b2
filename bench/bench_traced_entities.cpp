// Experiment E6 — paper Table 4: trace routing overhead while increasing
// the number of traced entities (10/20/30), with 1 broker and 30 trackers.
//
// As in the paper, every process shares one machine ("to cope with clock
// skews ... the traced entities and the trackers reside on the same
// machine"), so the compute-intensive per-trace security operations
// contend for the CPU: every ping response is RSA-signed by its entity and
// verified by the broker, and every resulting ALLS_WELL heartbeat is
// delegate-signed and fanned out to the trackers. More traced entities =
// more background security work per core = higher trace-routing mean and
// variance, which is the paper's observed effect.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr std::size_t kTrackers = 30;
constexpr std::size_t kRoundsPerEntity = 4;

RunningStats run_count(std::size_t entity_count) {
  tracing::TracingConfig config = paper_config();
  // Denser pings than the default so the per-entity security load is
  // material, as it was on the paper's 2007-era CPUs.
  config.ping_interval = 30 * kMillisecond;
  config.min_ping_interval = 20 * kMillisecond;

  Deployment dep(1, transport::LinkParams::tcp_profile(), config);

  std::vector<std::unique_ptr<tracing::TracedEntity>> entities;
  for (std::size_t i = 0; i < entity_count; ++i) {
    entities.push_back(dep.make_entity("entity-" + std::to_string(i), 0));
    dep.start_tracing(*entities.back());
  }

  // 30 trackers; tracker j watches entity j % N, receiving both the
  // heartbeat stream (background load) and the measured state
  // transitions.
  std::vector<std::unique_ptr<tracing::Tracker>> trackers;
  Latch state_received;
  for (std::size_t j = 0; j < kTrackers; ++j) {
    trackers.push_back(dep.make_tracker("tracker-" + std::to_string(j), 0));
    dep.track(*trackers.back(), "entity-" + std::to_string(j % entity_count),
              tracing::kCatStateTransitions | tracing::kCatAllUpdates,
              [&](const tracing::TracePayload& p, const pubsub::Message&) {
                if (p.state) state_received.hit();
              });
  }
  // Let the heartbeat stream reach steady state.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  SystemClock clock;
  RunningStats stats;
  std::uint64_t baseline = state_received.count();
  bool ready = true;
  for (std::size_t round = 0; round < kRoundsPerEntity; ++round) {
    for (std::size_t i = 0; i < entity_count; ++i) {
      const tracing::EntityState next =
          ready ? tracing::EntityState::kReady
                : tracing::EntityState::kRecovering;
      const TimePoint t0 = clock.now();
      entities[i]->set_state(next);
      // Latency to the FIRST tracker delivery of this transition.
      if (state_received.wait_for(baseline + 1, 5 * kSecond)) {
        stats.add(to_millis(clock.now() - t0));
      }
      // Let the rest of the audience drain before re-baselining so late
      // deliveries can't satisfy the next round's wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      baseline = state_received.count();
    }
    ready = !ready;
  }
  dep.net.stop();
  return stats;
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E6: Trace routing overhead vs number of traced entities "
      "(paper Table 4)\n"
      "Units: milliseconds. 1 broker, %zu trackers, all colocated. Each\n"
      "sample is one state transition's latency to its first tracker,\n"
      "under the full ping + heartbeat security load of every traced\n"
      "entity (30 ms ping period).\n",
      et::bench::kTrackers);
  et::bench::PaperTable table(
      "Trace routing overhead by increasing traced entities (TCP)");
  for (const std::size_t n : {10u, 20u, 30u}) {
    table.add_row(std::to_string(n) + " traced entities",
                  et::bench::run_count(n));
  }
  table.print();
  table.print_json("traced_entities");
  return 0;
}
