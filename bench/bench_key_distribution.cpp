// Experiment E3 — paper Table 3, "Key Distribution Overhead" for 2-4
// hops: the time from a tracker announcing interest in a *secured* trace
// stream to the sealed trace key arriving and being unwrapped (§5.1:
// gauge-interest flag -> tracker response with credential -> broker seals
// {key, algorithm, padding} to the tracker's credential).
//
// Each round uses a fresh tracker on the far broker, so the full exchange
// (discovery + subscriptions + interest response + sealed delivery +
// RSA unwrap) is measured, matching the paper's large variance.
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr int kRounds = 15;

RunningStats run_hops(std::size_t hops) {
  tracing::TracingConfig config = paper_config();
  config.secure_traces = true;

  Deployment dep(hops, transport::LinkParams::tcp_profile(), config);
  auto entity = dep.make_entity("secured-entity", 0);
  dep.start_tracing(*entity);

  RunningStats stats;
  SystemClock clock;
  // Trackers must outlive all network activity: their node handlers stay
  // registered until dep.net.stop() below.
  std::vector<std::unique_ptr<tracing::Tracker>> trackers;
  for (int round = 0; round < kRounds; ++round) {
    trackers.push_back(
        dep.make_tracker("tracker-" + std::to_string(round), hops - 1));
    tracing::Tracker* tracker = trackers.back().get();
    Latch ready;
    const TimePoint t0 = clock.now();
    tracker->track("secured-entity", tracing::kCatAllUpdates,
                   [](const tracing::TracePayload&, const pubsub::Message&) {},
                   [&](const Status& s) {
                     if (!s.is_ok()) std::abort();
                   });
    // The key arrives asynchronously after the interest response; poll the
    // tracker's counter.
    bool got_key = false;
    for (int spin = 0; spin < 4000; ++spin) {
      if (tracker->stats().keys_received > 0) {
        got_key = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    (void)ready;
    if (!got_key) {
      std::fprintf(stderr, "FATAL: key never arrived (hops=%zu)\n", hops);
      std::abort();
    }
    stats.add(to_millis(clock.now() - t0));
  }
  dep.net.stop();
  return stats;
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E3: Key distribution overhead (paper Table 3, last section)\n"
      "Units: milliseconds. %d fresh trackers per hop count; time from\n"
      "track() to the sealed AES-192 trace key being unwrapped.\n",
      et::bench::kRounds);
  et::bench::PaperTable table("Key Distribution Overhead");
  for (std::size_t hops = 2; hops <= 4; ++hops) {
    table.add_row(std::to_string(hops) + "-hops",
                  et::bench::run_hops(hops));
  }
  table.print();
  table.print_json("key_distribution");
  return 0;
}
