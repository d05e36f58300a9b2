// The transport-independence boundary.
//
// "Entities do not have to deal with the complexity of the underlying
// transports" (paper §1, characteristic 2). Everything above this layer —
// brokers, TDNs, traced entities, trackers — talks to a `NetworkBackend`
// and never to sockets or event queues directly. Two interchangeable
// backends exist:
//
//   * RealTimeNetwork — every node gets an executor thread (actor model);
//     a timer thread delivers packets after their sampled link delay. Used
//     by the latency benchmarks, which measure wall-clock time.
//   * VirtualTimeNetwork — single-threaded deterministic discrete-event
//     simulation; time advances only through the event queue. Used by unit
//     tests, property tests and large-scale message-count experiments.
//   * SocketNetwork — real nonblocking TCP over OS sockets with an epoll
//     readiness loop (socket_network.h); the backend the honest wire
//     throughput/latency numbers come from, deployable multi-process.
//
// Payload ownership: `send` takes a `std::shared_ptr<const Bytes>` so one
// serialized frame can fan out to N destinations without N deep copies —
// backends hold a reference per in-flight delivery instead of a buffer.
// Handlers receive a `BytesView` borrowed for the duration of the call
// (the view points into the backend's delivery buffer or receive arena);
// a handler that needs the bytes past its return must copy them.
//
// Nodes are actors: every handler and timer callback for a node runs in
// that node's execution context, serialized — node-local state needs no
// locking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/transport/link.h"

namespace et::transport {

class FaultInjector;

/// Opaque node handle assigned by the backend.
using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Invoked in the destination node's context when a packet arrives. The
/// payload view is valid only for the duration of the call.
using PacketHandler = std::function<void(NodeId from, BytesView payload)>;

/// Immutable wire payload shared across fan-out sends and in-flight
/// duplicates.
using SharedPayload = std::shared_ptr<const Bytes>;

/// Wraps an owning buffer for the shared-payload send path.
inline SharedPayload share_payload(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

/// Deferred work in a node's context.
using Task = std::function<void()>;

/// Cancellation handle for a scheduled timer. 0 is "none".
using TimerId = std::uint64_t;

/// Abstract message-passing substrate. Thread-safety: `send`, `post` and
/// `schedule` may be called from any node context; topology mutation
/// (`add_node`, `link`) must happen before traffic starts.
class NetworkBackend {
 public:
  NetworkBackend();
  virtual ~NetworkBackend();

  /// Registers a node; `handler` runs in the node's context per packet.
  virtual NodeId add_node(std::string name, PacketHandler handler) = 0;

  /// Creates a bidirectional link with symmetric parameters.
  virtual void link(NodeId a, NodeId b, const LinkParams& params) = 0;

  /// Removes the link (models a disconnect); in-flight packets are dropped.
  virtual void unlink(NodeId a, NodeId b) = 0;

  /// Replaces `node`'s packet handler with a no-op. Actors call this from
  /// their destructors so packets still in flight cannot invoke a dangling
  /// callback. (Timers the actor scheduled must be cancelled separately.)
  virtual void detach(NodeId node) = 0;

  /// Sends a packet along an existing link. Unlinked destinations return
  /// kUnavailable. Loss on unreliable links is silent (returns OK). The
  /// payload is shared, not copied: callers fanning one frame out to many
  /// destinations serialize once and pass the same pointer to each send.
  /// Backends never mutate the buffer (injected corruption copies first).
  virtual Status send(NodeId from, NodeId to, SharedPayload payload) = 0;

  /// Owning-buffer convenience over the shared-payload path.
  Status send(NodeId from, NodeId to, Bytes payload) {
    return send(from, to, share_payload(std::move(payload)));
  }

  /// Runs `task` in `node`'s context as soon as possible.
  virtual void post(NodeId node, Task task) = 0;

  /// Runs `task` in `node`'s context after `delay`. Returns a cancellable
  /// timer id.
  virtual TimerId schedule(NodeId node, Duration delay, Task task) = 0;

  /// Best-effort timer cancellation (a timer already fired is a no-op).
  virtual void cancel(TimerId id) = 0;

  /// Current time on this backend's clock.
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// True when this backend runs node contexts on real threads and its
  /// `send`/`post`/`schedule` entry points are safe from any thread.
  /// Nothing in src/ asks any more; kept because tracebench's SpanTracer
  /// overrides it.
  [[nodiscard]] virtual bool concurrent_dispatch() const { return false; }

  /// True when the two nodes are directly linked.
  [[nodiscard]] virtual bool linked(NodeId a, NodeId b) const = 0;

  /// Human-readable node name (diagnostics).
  [[nodiscard]] virtual std::string node_name(NodeId id) const = 0;

  /// The backend's fault plan (chaos testing). Both backends consult it on
  /// every send and delivery; see fault_injector.h for semantics. Safe to
  /// mutate from any thread at any time.
  [[nodiscard]] FaultInjector& faults() { return *faults_; }
  [[nodiscard]] const FaultInjector& faults() const { return *faults_; }

 protected:
  std::shared_ptr<FaultInjector> faults_;
};

}  // namespace et::transport
