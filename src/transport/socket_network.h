// Real-socket NetworkBackend: nonblocking TCP multiplexed on one epoll loop.
//
// The third backend (network.h): where VirtualTimeNetwork simulates and
// RealTimeNetwork thread-switches in-process, SocketNetwork pushes every
// frame through the kernel's TCP stack — length-prefixed framing with
// partial-read reassembly (wire_framing.h), per-peer write queues flushed
// with scatter-gather sendmsg, and timers multiplexed on the same loop via
// a timerfd. This is the backend the honest wire throughput/latency
// numbers come from (EXPERIMENTS.md E15), and the one that deploys a
// pubsub::Topology as separate processes: each process runs its own
// SocketNetwork, names remote peers with `add_remote`, and connections
// carry a small hello frame so the acceptor learns which node pair a
// socket serves.
//
// Threading model: ONE event-loop thread owns every socket, connection
// and write queue; no other thread ever touches an fd. Public entry
// points (`send`, `post`, `schedule`, topology mutation) stage work under
// a mutex and wake the loop through an eventfd, so all of them are safe
// from any thread (`concurrent_dispatch() == true`). Node handlers run on
// the loop thread, which trivially serializes them — the actor contract —
// at the cost that a handler that blocks stalls every node in this
// process (a broker's inline trace verification holds the loop for its
// RSA verify).
//
// Link model parity: `link` takes the same LinkParams as the simulated
// backends. Sends are held in a delayed-release queue for the sampled
// link latency before being written to the socket, and both the release
// point and the receive path re-check the link and the fault plan — so
// `unlink` drops in-flight frames and a partition that starts mid-flight
// swallows packets exactly as on the other two backends, and the whole
// fault-injector matrix (loss, corruption, partitions) applies unchanged.
// Corruption is injected at the framing layer: the mutated bytes really
// cross the socket, exercising the decoder against corrupted streams.
#pragma once

#include <netinet/in.h>

#include <array>
#include <atomic>
#include <cstdint>
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
#include "src/transport/wire_framing.h"

namespace et::transport {

class SocketNetwork final : public NetworkBackend {
 public:
  /// Opens a loopback listener on an ephemeral port (port 0) or a fixed
  /// one (multi-process wiring) and starts the event loop. `seed` drives
  /// link delay sampling and the fault injector, like the other backends.
  explicit SocketNetwork(std::uint64_t seed = 42, std::uint16_t port = 0);
  ~SocketNetwork() override;

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  NodeId add_node(std::string name, PacketHandler handler) override;

  /// Registers a node living in another process, reachable at host:port
  /// (its SocketNetwork's listener). Sends to it dial out lazily on first
  /// release. Node names must be globally unique across the deployment.
  NodeId add_remote(std::string name, const std::string& host,
                    std::uint16_t port);

  /// Registers a remote node with no dialable address: the peer is
  /// expected to dial US (its `link` names this process's listener). Use
  /// on the passive side of a cross-process link.
  NodeId add_remote(std::string name);

  /// Eagerly dials the connection for (from, to) instead of waiting for
  /// the first frame. Lets a process that has nothing to say yet announce
  /// itself, so the passive side can flush any interest it parked for us.
  /// No-op when the pair is already connected or `to` is passive.
  void connect_peer(NodeId from, NodeId to);

  void link(NodeId a, NodeId b, const LinkParams& params) override;
  void unlink(NodeId a, NodeId b) override;
  void detach(NodeId node) override;
  using NetworkBackend::send;
  Status send(NodeId from, NodeId to, SharedPayload payload) override;
  void post(NodeId node, Task task) override;
  TimerId schedule(NodeId node, Duration delay, Task task) override;
  void cancel(TimerId id) override;
  [[nodiscard]] TimePoint now() const override { return clock_.now(); }
  /// send/post/schedule are thread-safe.
  [[nodiscard]] bool concurrent_dispatch() const override { return true; }
  [[nodiscard]] bool linked(NodeId a, NodeId b) const override;
  [[nodiscard]] std::string node_name(NodeId id) const override;

  /// Actual TCP port the listener bound (for multi-process wiring when
  /// constructed with port 0).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Coarse quiescence helper (tests): blocks until no timer is due
  /// within `grace`, no frame is queued unwritten, and the loop has been
  /// observed idle. Cannot see the kernel's socket buffers, so a frame
  /// already written but not yet read extends the wait only via the
  /// double-check delay.
  void drain(Duration grace = 50 * kMillisecond);

  /// Stops the loop thread and closes every socket. Call BEFORE
  /// destroying objects whose handlers are registered here. Idempotent;
  /// the destructor calls it too.
  void stop();

  /// Frames handed to send() (including later drops).
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_.load(); }
  /// Frames delivered to a local handler.
  [[nodiscard]] std::uint64_t packets_delivered() const {
    return delivered_.load();
  }
  /// Sum of payload bytes handed to send().
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_.load(); }

 private:
  struct Node {
    std::string name;
    PacketHandler handler;  // null for remote nodes
    bool remote = false;
    bool has_addr = false;
    sockaddr_in addr{};
  };

  /// One frame queued on a connection: 4-byte header + shared body,
  /// written with scatter-gather so the payload is never copied into a
  /// contiguous send buffer. `off` advances through header-then-body.
  struct OutFrame {
    std::array<std::uint8_t, 4> hdr;
    SharedPayload body;
    std::size_t off = 0;
  };

  struct Conn {
    int fd = -1;
    NodeId local = kInvalidNode;  // node this end sends from / delivers to
    NodeId peer = kInvalidNode;
    bool peer_known = false;   // acceptor side: set once the hello arrives
    bool connecting = false;   // nonblocking connect() still in progress
    bool want_write = false;   // EPOLLOUT armed
    bool dead = false;         // deferred close (fd-reuse safety)
    FrameAssembler assembler;
    std::deque<OutFrame> outq;
  };

  struct TimedTask {
    TimePoint at;
    std::uint64_t seq;
    TimerId timer_id;
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

  NodeId register_node_locked(Node node);
  /// Pushes a loop-thread task (timer at `at`) and wakes the loop.
  void push_timer(TimePoint at, TimerId id, Task task);
  void wake();

  // --- loop-thread-only machinery ---------------------------------------
  void loop();
  void handle_event(std::uint32_t events, int fd);
  void accept_ready();
  void conn_readable(Conn* c);
  void conn_writable(Conn* c);
  void on_frame(Conn* c, BytesView frame);
  void handle_hello(Conn* c, BytesView frame);
  /// Latency-release point: re-checks link + fault plan, then queues the
  /// frame on the pair's connection (dialing lazily if needed).
  void queue_frame(NodeId from, NodeId to, SharedPayload payload);
  Conn* ensure_conn(NodeId from, NodeId to);
  Conn* dial(NodeId from, NodeId to, const sockaddr_in& addr);
  void flush(Conn* c);
  void update_interest(Conn* c);
  void close_conn(Conn* c);  // defers ::close to end of event batch
  void reap_doomed();
  void arm_timerfd(TimePoint next);

  SystemClock clock_;

  mutable std::mutex mu_;
  Rng rng_;  // guarded by mu_
  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId> names_;
  std::unordered_map<LinkKey, LinkState> links_;  // directed
  std::priority_queue<TimedTask, std::vector<TimedTask>, TimedOrder> timers_;
  std::unordered_set<TimerId> cancelled_;
  std::uint64_t next_seq_ = 1;
  TimerId next_timer_ = 1;
  bool stopping_ = false;

  /// Nonzero while the loop runs timers, commands or socket events —
  /// drain() must not report idle then.
  std::atomic<int> dispatching_{0};
  /// Frames queued on a connection but not yet fully written.
  std::atomic<std::int64_t> pending_out_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // Loop-thread-only (created before the thread starts, torn down after
  // it joins).
  int epfd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<LinkKey, int> pair_conns_;  // directed (from,to) -> fd
  /// Frames for a passive remote that has not dialed in yet, flushed when
  /// its hello lands. Bounded per pair; overflow drops like a lost packet.
  std::unordered_map<LinkKey, std::vector<OutFrame>> parked_;
  std::vector<int> doomed_;
  std::thread loop_thread_;
};

}  // namespace et::transport
