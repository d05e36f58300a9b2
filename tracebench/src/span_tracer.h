// Span recording for the traced run, done entirely from outside the
// program: a NetworkBackend decorator, possible because every component
// takes `transport::NetworkBackend&`.
//
// The decorator
//   1. times each node's packet handler, posted task and timer as a span;
//   2. counts frames and bytes on each send;
//   3. links spans causally — a send or post made inside a span is the
//      parent of the handler or task it triggers. Packets are matched to
//      their send FIFO per directed node pair, which is exact on the
//      ordered, lossless links the benchmark deploys;
//   4. wraps a broker's message filter (install_trace_filter's output), so
//      the filter call shows up as a span nested in the broker's handler;
//   5. keeps spans in memory; write_spans() dumps them at the end.
//
// While recording is off the decorator still keeps the send->handler FIFO
// in step (so turning it on mid-run links correctly) but times nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pubsub/broker.h"
#include "src/transport/network.h"

namespace tracebench {

enum class SpanKind : std::uint8_t { kPacket, kTask, kTimer, kFilter };

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // causing or enclosing span; 0 = none
  et::transport::NodeId node = et::transport::kInvalidNode;
  SpanKind kind = SpanKind::kPacket;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Packets: when the causing send ran; tasks/timers: when posted or
  /// armed; -1 when unknown.
  std::int64_t sent_ns = -1;
};

class SpanTracer final : public et::transport::NetworkBackend {
 public:
  explicit SpanTracer(et::transport::NetworkBackend& inner);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] bool recording() const { return recording_.load(); }

  /// Times every call of `filter` as a kFilter span on the invoking broker.
  et::pubsub::MessageFilter wrap_filter(et::pubsub::MessageFilter filter);

  /// Moves out every span recorded so far.
  std::vector<Span> take_spans();
  /// Frames and payload bytes sent while recording.
  [[nodiscard]] std::uint64_t frames() const { return frames_.load(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }
  /// Node names by id (every node added through this decorator).
  [[nodiscard]] std::vector<std::string> node_names() const;

  // --- NetworkBackend -----------------------------------------------------
  et::transport::NodeId add_node(std::string name,
                                 et::transport::PacketHandler handler) override;
  void link(et::transport::NodeId a, et::transport::NodeId b,
            const et::transport::LinkParams& params) override;
  void unlink(et::transport::NodeId a, et::transport::NodeId b) override;
  void detach(et::transport::NodeId node) override;
  using NetworkBackend::send;
  et::Status send(et::transport::NodeId from, et::transport::NodeId to,
                  et::transport::SharedPayload payload) override;
  void post(et::transport::NodeId node, et::transport::Task task) override;
  et::transport::TimerId schedule(et::transport::NodeId node, et::Duration delay,
                                  et::transport::Task task) override;
  void cancel(et::transport::TimerId id) override;
  [[nodiscard]] et::TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] bool concurrent_dispatch() const override {
    return inner_.concurrent_dispatch();
  }
  [[nodiscard]] bool linked(et::transport::NodeId a,
                            et::transport::NodeId b) const override {
    return inner_.linked(a, b);
  }
  [[nodiscard]] std::string node_name(et::transport::NodeId id) const override {
    return inner_.node_name(id);
  }

 private:
  class Scope;
  struct Link {
    std::uint64_t parent = 0;
    std::int64_t sent_ns = -1;
  };
  static std::uint64_t pair_key(et::transport::NodeId from,
                                et::transport::NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  void commit(const Span& span);

  et::transport::NetworkBackend& inner_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_{0};

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::deque<Link>> links_;  // guarded
  std::vector<Span> spans_;                                     // guarded
  std::vector<std::string> names_;                              // guarded
};

/// Self time of `span`: its duration minus the part of it covered by the
/// union of `children` (intervals are clipped to the span first).
std::int64_t self_time_ns(
    const Span& span,
    std::vector<std::pair<std::int64_t, std::int64_t>> children);

/// Busy time per node and transport-level totals over spans that start
/// in [t0, t1).
struct SpanSummary {
  std::vector<std::int64_t> busy_ns;  // per node id: sum of self times
  std::int64_t filter_ns = 0;         // filter spans, total duration
  std::uint64_t filter_calls = 0;
  std::int64_t packet_wait_ns = 0;  // handler start - causing send
  std::uint64_t linked_packets = 0;
  std::uint64_t spans = 0;

  /// Sum of busy_ns over the nodes for which `pick(id)` is true.
  template <class Pred>
  [[nodiscard]] std::int64_t busy_where(Pred pick) const {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < busy_ns.size(); ++i) {
      if (pick(static_cast<et::transport::NodeId>(i))) total += busy_ns[i];
    }
    return total;
  }
};

SpanSummary summarize(const std::vector<Span>& spans, std::int64_t t0,
                      std::int64_t t1, std::size_t node_count);

/// One line per span (id, parent, node, kind, start, end, sent) after a
/// header naming the nodes. Returns false when the file cannot be written.
bool write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans,
                 const std::vector<std::string>& node_names);

}  // namespace tracebench
