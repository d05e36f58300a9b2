// Deterministic discrete-event NetworkBackend.
//
// Single-threaded: `run_until_idle` / `run_for` pop events in (time, seq)
// order and execute them; simulated time jumps between events. Identical
// seeds produce identical executions, which the property tests rely on.
// Scales to thousands of nodes (no threads), powering the message-count
// experiments (E7/E8 in DESIGN.md) that go beyond the paper's testbed.
#pragma once

#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/transport/network.h"

namespace et::transport {

class VirtualTimeNetwork final : public NetworkBackend {
 public:
  /// `seed` drives link jitter/loss sampling.
  explicit VirtualTimeNetwork(std::uint64_t seed = 42);

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
  /// Single-threaded simulation: callers must not thread; inherits the
  /// base's `concurrent_dispatch() == false`.
  [[nodiscard]] bool linked(NodeId a, NodeId b) const override;
  [[nodiscard]] std::string node_name(NodeId id) const override;

  // --- simulation control -------------------------------------------------

  /// Processes events until the queue is empty. Returns events executed.
  std::size_t run_until_idle();

  /// Processes events with timestamp < now()+d, then sets time to now()+d.
  std::size_t run_for(Duration d);

  /// Processes exactly one event if available; returns false when idle.
  bool step();

  /// Total packets delivered (excludes drops).
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }
  /// Total packets handed to send() (includes later drops).
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  /// Total packets lost on unreliable links.
  [[nodiscard]] std::uint64_t packets_lost() const { return lost_; }
  /// Sum of payload bytes handed to send().
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Node {
    std::string name;
    PacketHandler handler;
  };
  struct Event {
    TimePoint at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    TimerId timer_id;   // 0 when not cancellable
    Task task;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap
      return a.seq > b.seq;
    }
  };
  using LinkKey = std::uint64_t;
  static LinkKey key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void push_event(TimePoint at, TimerId timer_id, Task task);

  ManualClock clock_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::unordered_map<LinkKey, LinkState> links_;  // directed
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::unordered_map<TimerId, bool> cancelled_;  // sparse tombstones
  std::uint64_t next_seq_ = 1;
  TimerId next_timer_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace et::transport
