// Wall-clock NetworkBackend: actor threads + a timed delivery thread.
//
// Every node owns an executor thread draining an inbox, so node handlers
// run serialized per node but concurrently across nodes — matching the
// paper's testbed where brokers/entities were separate processes on
// separate machines. One timer thread sleeps until the earliest pending
// delivery/timer and then posts the task into the target node's inbox.
// Latency benchmarks (Table 3, Figures 2/4/5) run on this backend because
// they measure real elapsed time including real crypto cost.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/transport/network.h"

namespace et::transport {

class RealTimeNetwork final : public NetworkBackend {
 public:
  explicit RealTimeNetwork(std::uint64_t seed = 42);
  ~RealTimeNetwork() override;

  RealTimeNetwork(const RealTimeNetwork&) = delete;
  RealTimeNetwork& operator=(const RealTimeNetwork&) = delete;

  NodeId add_node(std::string name, PacketHandler handler) override;
  void link(NodeId a, NodeId b, const LinkParams& params) override;
  void unlink(NodeId a, NodeId b) override;
  void detach(NodeId node) override;
  using NetworkBackend::send;
  Status send(NodeId from, NodeId to, SharedPayload payload) override;
  void post(NodeId node, Task task) override;
  TimerId schedule(NodeId node, Duration delay, Task task) override;
  void cancel(TimerId id) override;
  [[nodiscard]] TimePoint now() const override { return clock_.now(); }
  /// All entry points here are thread-safe.
  [[nodiscard]] bool concurrent_dispatch() const override { return true; }
  [[nodiscard]] bool linked(NodeId a, NodeId b) const override;
  [[nodiscard]] std::string node_name(NodeId id) const override;

  /// Blocks until all node inboxes are momentarily empty and no timer is
  /// due within `grace`. Coarse quiescence helper for tests.
  void drain(Duration grace = 50 * kMillisecond);

  /// Permanently stops the timer thread and every node worker. Call this
  /// BEFORE destroying objects whose handlers are registered here —
  /// otherwise an in-flight timer (e.g. a ping) can invoke a dangling
  /// callback. Idempotent; the destructor calls it too.
  void stop();

 private:
  struct NodeActor {
    std::string name;
    PacketHandler handler;
    std::thread worker;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> inbox;
    bool stopping = false;
    bool busy = false;
  };

  struct TimedTask {
    TimePoint at;
    std::uint64_t seq;
    TimerId timer_id;
    NodeId node;
    std::shared_ptr<Task> task;
  };
  struct TimedOrder {
    bool operator()(const TimedTask& a, const TimedTask& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  using LinkKey = std::uint64_t;
  static LinkKey key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void node_loop(NodeActor* actor);
  void timer_loop();
  void enqueue(NodeId node, Task task);
  TimerId schedule_at(NodeId node, TimePoint at, Task task, TimerId id);

  SystemClock clock_;

  mutable std::mutex links_mu_;
  Rng rng_;  // guarded by links_mu_
  std::unordered_map<LinkKey, LinkState> links_;

  mutable std::mutex nodes_mu_;
  std::vector<std::unique_ptr<NodeActor>> nodes_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimedTask, std::vector<TimedTask>, TimedOrder> timers_;
  std::unordered_set<TimerId> cancelled_;
  std::uint64_t next_seq_ = 1;
  TimerId next_timer_ = 1;
  bool stopping_ = false;
  /// Nonzero while the timer thread is between popping a due task and
  /// handing it to the target inbox — drain() must not report idle then.
  std::atomic<int> dispatching_{0};
  std::thread timer_thread_;
};

}  // namespace et::transport
