// E15: socket transport on loopback vs the simulated backends.
//
// Builds the same 3-broker chain (publisher client at one end, subscriber
// at the other: client -> b0 -> b1 -> b2 -> client, three broker hops) on
// each NetworkBackend and reports:
//
//   - 3-hop publish latency (wall-clock for SocketNetwork/RealTimeNetwork,
//     modelled virtual time for VirtualTimeNetwork),
//   - the copies-per-hop accounting: BrokerStats::materialized across the
//     chain, which the view-codec redesign keeps at ZERO on pure-forward
//     hops (every hop re-sends the original wire bytes).
//
// Capacity is not measured here: tracebench's trace_flood workload
// measures it closed-loop at saturation.
//
// JSON rows land on stdout for the BENCH_socket_loopback.json trajectory.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "src/pubsub/client.h"
#include "src/pubsub/topology.h"
#include "src/transport/realtime_network.h"
#include "src/transport/socket_network.h"
#include "src/transport/virtual_network.h"

namespace et::bench {
namespace {

constexpr std::size_t kBrokers = 3;
constexpr std::size_t kLatencyRounds = 200;
constexpr char kTopic[] = "e15/stream";

transport::LinkParams loopback_link() {
  transport::LinkParams p;
  p.base_latency = 200 * kMicrosecond;
  p.jitter_stddev = 0;
  return p;
}

template <typename Net>
constexpr bool is_virtual = std::is_same_v<Net, transport::VirtualTimeNetwork>;

/// One backend's chain deployment plus the measurement drivers.
template <typename Net>
class Chain {
 public:
  Chain()
      : topo_(net_),
        brokers_(topo_.make_chain(kBrokers, loopback_link(), "broker")),
        pub_(net_, "publisher"),
        sub_(net_, "subscriber") {
    pub_.connect(brokers_.front()->node(), loopback_link());
    sub_.connect(brokers_.back()->node(), loopback_link());
    settle();
    sub_.subscribe(kTopic, [this](const pubsub::Message&) {
      received_.fetch_add(1, std::memory_order_relaxed);
    });
    settle();  // interest propagates back along the chain
  }

  /// Mean single-message 3-hop latency (ms).
  RunningStats latency() {
    RunningStats stats;
    for (std::size_t i = 0; i < kLatencyRounds; ++i) {
      const std::uint64_t before = received_.load();
      if constexpr (is_virtual<Net>) {
        const TimePoint t0 = net_.now();
        pub_.publish(kTopic, to_bytes("ping"));
        net_.run_until_idle();
        stats.add(to_millis(net_.now() - t0));
      } else {
        SystemClock clock;
        const TimePoint t0 = clock.now();
        pub_.publish(kTopic, to_bytes("ping"));
        if (!wait_received(before + 1, 2 * kSecond)) continue;  // lost round
        stats.add(to_millis(clock.now() - t0));
      }
    }
    return stats;
  }

  /// Owning Message copies the chain's brokers made, and the wire-bytes
  /// forwards they made instead. Pure-forward traffic must show 0 copies.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> copy_counters() const {
    std::uint64_t materialized = 0;
    std::uint64_t view_forwards = 0;
    for (const auto* b : brokers_) {
      const pubsub::BrokerStats s = b->stats();
      materialized += s.materialized;
      view_forwards += s.view_forwards;
    }
    return {materialized, view_forwards};
  }

 private:
  void settle() {
    if constexpr (is_virtual<Net>) {
      net_.run_until_idle();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  bool wait_received(std::uint64_t target, Duration timeout) {
    SystemClock clock;
    const TimePoint deadline = clock.now() + timeout;
    while (received_.load() < target) {
      if (clock.now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  Net net_{77};
  pubsub::Topology topo_;
  std::vector<pubsub::Broker*> brokers_;
  pubsub::Client pub_;
  pubsub::Client sub_;
  std::atomic<std::uint64_t> received_{0};
};

template <typename Net>
void run_backend(const std::string& label, PaperTable& latency_table,
                 PaperTable& copies_table) {
  Chain<Net> chain;
  latency_table.add_row(label + " 3-hop latency", chain.latency());

  const auto [materialized, view_forwards] = chain.copy_counters();
  RunningStats copies;
  copies.add(static_cast<double>(materialized));
  copies_table.add_row(label + " owning copies (want 0)", copies);
  RunningStats forwards;
  forwards.add(static_cast<double>(view_forwards));
  copies_table.add_row(label + " wire-view forwards", forwards);
  if (materialized != 0) {
    std::fprintf(stderr,
                 "E15 REGRESSION [%s]: %llu owning Message copies on a "
                 "pure-forward workload (view codec should make this 0)\n",
                 label.c_str(),
                 static_cast<unsigned long long>(materialized));
  }
}

}  // namespace
}  // namespace et::bench

int main() {
  using namespace et::bench;
  PaperTable latency("E15: 3-hop publish latency, 3-broker chain (ms)");
  PaperTable copies("E15: copies-per-hop accounting", "count");

  run_backend<et::transport::VirtualTimeNetwork>("virtual", latency, copies);
  run_backend<et::transport::RealTimeNetwork>("realtime", latency, copies);
  run_backend<et::transport::SocketNetwork>("socket-loopback", latency,
                                            copies);

  latency.print();
  copies.print();
  latency.print_json("socket_loopback_latency");
  copies.print_json("socket_loopback_copies");
  return 0;
}
