// Experiment E4 — paper Figure 4: trace time while increasing the number
// of trackers, added in groups of 10.
//
// Topology per paper Figure 3: a star of brokers around the traced
// entity's hub broker; tracker groups land on different leaf brokers
// ("the groups of 10 trackers were hosted on different machines"). The
// measuring tracker reports end-to-end trace latency; the expectation is
// a near-flat curve ("the trace time increases very slowly with an
// increase in the number of trackers").
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr std::size_t kLeafBrokers = 3;
constexpr std::size_t kGroupSize = 10;
constexpr std::size_t kMaxTrackers = 60;
constexpr std::size_t kRounds = 30;

void run() {
  tracing::TracingConfig config = paper_config();
  config.secure_traces = true;  // the paper's full configuration

  // Star: broker 0 is the hub (hosts the traced entity); leaves 1..k.
  Deployment dep(kLeafBrokers + 1, transport::LinkParams::tcp_profile(),
                 config, Deployment::Shape::kStar);
  auto entity = dep.make_entity("popular-entity", 0);
  dep.start_tracing(*entity);

  // The measuring tracker is the first of the first group.
  Latch received;
  auto measuring = dep.make_tracker("measuring-tracker", 1);
  dep.track(*measuring, "popular-entity", tracing::kCatStateTransitions,
            [&](const tracing::TracePayload& p, const pubsub::Message&) {
              if (p.state) received.hit();
            });

  std::vector<std::unique_ptr<tracing::Tracker>> trackers;
  PaperTable table("Trace time vs number of trackers (Figure 4)");
  for (std::size_t count = kGroupSize; count <= kMaxTrackers;
       count += kGroupSize) {
    // Top up to `count` trackers (the measuring one included), spreading
    // groups across leaf brokers.
    while (trackers.size() + 1 < count) {
      const std::size_t idx = trackers.size() + 1;
      const std::size_t leaf = 1 + (idx / kGroupSize) % kLeafBrokers;
      trackers.push_back(
          dep.make_tracker("tracker-" + std::to_string(idx), leaf));
      dep.track(*trackers.back(), "popular-entity",
                tracing::kCatStateTransitions,
                [](const tracing::TracePayload&, const pubsub::Message&) {});
    }
    const RunningStats stats =
        measure_state_trace_latency(dep, *entity, received, kRounds);
    table.add_row(std::to_string(count) + " trackers", stats);
  }
  table.print();
  table.print_json("trackers");
  dep.net.stop();
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E4: Trace time while increasing trackers (paper Figure 4)\n"
      "Units: milliseconds. Star topology (hub + %zu leaf brokers),\n"
      "trackers added in groups of %zu up to %zu, authorization+security,\n"
      "%zu traces measured per point at the measuring tracker.\n",
      et::bench::kLeafBrokers, et::bench::kGroupSize,
      et::bench::kMaxTrackers, et::bench::kRounds);
  et::bench::run();
  return 0;
}
