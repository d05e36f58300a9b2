// Broker: the routing node of the publish/subscribe substrate.
//
// "A broker performs the routing function by routing content along to
// other brokers within the broker network. Producers and consumers don't
// interact directly with each other." (paper §2)
//
// Responsibilities implemented here:
//   * client attachment (connect/ack) with claimed entity identities;
//   * subscription management and interest propagation across the broker
//     overlay (reverse-path forwarding; the overlay must be acyclic, which
//     Topology in topology.h guarantees);
//   * topic routing: deliver to matching local clients and local services,
//     forward to interested neighbour brokers with split-horizon;
//   * constrained-topic enforcement at the edge (clients may only perform
//     the actions the grammar grants them — paper §3.1/§4.3);
//   * a pluggable inbound-message filter so the tracing layer can install
//     authorization-token verification for broker-to-broker traffic
//     (paper §4.3: messages without valid tokens are discarded);
//   * denial-of-service bookkeeping: endpoints exceeding the misbehaviour
//     threshold are disconnected (paper §5.2: "the broker will terminate
//     communications with such an entity").
//
// Routing runs over wire views (DESIGN.md §9): a publish is matched
// against snapshots of the subscription tables and the local-service
// index, then its frame bytes are sent to every destination. A relay
// re-sends the bytes it received; a message the broker builds itself (its
// own publications, or a topic rewritten to canonical form) is encoded
// once and that one buffer goes to every destination. An owning Message
// is materialized only when a local service matched.
//
// Threading: all mutable state is touched only from the broker's node
// context (its packet handler and timers). Stats counters are relaxed
// atomics and may be read from any thread. Setup calls (peer,
// add_client_unreachable_listener, set_link_handler) must complete before
// traffic starts; subscribe_local/unsubscribe_local may also run later
// from the node context. The packet handler references the broker: stop
// the network before destroying it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/atomic_shared_ptr.h"
#include "src/common/stats.h"
#include "src/common/topic_path.h"
#include "src/pubsub/constrained_topic.h"
#include "src/pubsub/interest_summary.h"
#include "src/persist/store.h"
#include "src/pubsub/message.h"
#include "src/pubsub/subscription.h"
#include "src/transport/network.h"

namespace et::pubsub {

class Broker;

/// Callback for broker-local services (tracing) receiving matched messages.
using LocalHandler = std::function<void(const Message&)>;

/// Names one subscribe_local registration (for unsubscribe_local). Ids
/// increase in registration order; 0 is never issued.
using LocalServiceId = std::uint64_t;

/// Inbound filter: inspects a message arriving from a neighbour broker or
/// client before routing, in the broker's node context. An ok Status
/// accepts; any other is discarded and struck against `from`. The message
/// is a borrowed view into the wire bytes, valid only for this call.
/// `self` is the invoking broker; no filter in src/ reads it, but
/// tracebench's SpanTracer::wrap_filter does, so it stays.
using MessageFilter = std::function<Status(
    Broker& self, const MessageView& msg, transport::NodeId from)>;

/// Invoked (in the broker's context) when a delivery to a directly
/// connected client fails because its link is gone — the pub/sub-level
/// "connection closed" signal the tracing service turns into DISCONNECT
/// traces (paper Table 1).
using ClientUnreachableHandler =
    std::function<void(const std::string& entity_id)>;

/// One consistent read of a broker's counters (see Broker::stats()).
struct BrokerStats {
  std::uint64_t published = 0;        // messages entering routing here
  std::uint64_t forwarded = 0;        // copies sent to neighbour brokers
  std::uint64_t delivered_local = 0;  // copies delivered to local clients
  std::uint64_t discarded = 0;        // filter/constraint rejections
  std::uint64_t disconnects = 0;      // endpoints dropped for misbehaviour
  /// Owning Message copies built out of wire views (local-service
  /// delivery, non-canonical topic rewrites). The copies-per-hop measure
  /// E15 reports: a pure-forward hop contributes 0 here.
  std::uint64_t materialized = 0;
  /// Frames sent as a copy of the received wire bytes (no owning
  /// Message, no re-serialization).
  std::uint64_t view_forwards = 0;
};

/// The live counters behind BrokerStats: relaxed atomics, incremented
/// from the broker's contexts and readable from any thread. snapshot()
/// is the consistent accessor benches and tests should use.
struct BrokerCounters {
  RelaxedCounter published;
  RelaxedCounter forwarded;
  RelaxedCounter delivered_local;
  RelaxedCounter discarded;
  RelaxedCounter disconnects;
  RelaxedCounter materialized;
  RelaxedCounter view_forwards;

  [[nodiscard]] BrokerStats snapshot() const {
    return {published.get(),  forwarded.get(),    delivered_local.get(),
            discarded.get(),  disconnects.get(),  materialized.get(),
            view_forwards.get()};
  }
};

class Broker {
 public:
  /// Batch-first interest declaration: one subscription edge covering
  /// everything under `prefix` instead of one edge per concrete topic.
  /// `depth` > 0 truncates the prefix to its first `depth` segments
  /// before widening, so interests registered for sibling subtrees
  /// collapse into the same upstream edge.
  struct Interest {
    std::string prefix;
    std::size_t depth = 0;
  };

  /// Everything a broker can be configured with, in one place.
  /// Construction from Options is the only configuration path — the
  /// legacy name/threshold constructor and the set_message_filter /
  /// set_client_unreachable_handler shims were retired; broker-local
  /// services needing disconnect notifications register listeners via
  /// add_client_unreachable_listener instead.
  struct Options {
    /// Broker name; doubles as its publisher id for broker-generated
    /// messages.
    std::string name;
    /// Strikes before an endpoint is disconnected (paper §5.2).
    int misbehaviour_threshold = 5;
    /// Inbound filter (tracing-token verification); may be empty.
    MessageFilter message_filter{};
    /// Dead-client callback (fires once per vanished client); may be
    /// empty. Further listeners can be appended after construction with
    /// add_client_unreachable_listener.
    ClientUnreachableHandler client_unreachable_handler{};
    /// Durable misbehaviour state directory (DESIGN.md §16): strike
    /// counters and the blacklist survive a restart-with-state when set,
    /// so a misbehaver cannot launder its record by waiting out a broker
    /// deploy. Empty = in-memory only, the historical behaviour.
    std::string misbehaviour_persist_dir{};
    persist::FsyncPolicy misbehaviour_fsync = persist::FsyncPolicy::kNever;
    /// Hierarchical interest aggregation (interest_summary.h). 0 keeps
    /// the legacy behaviour: every pattern re-announced verbatim at every
    /// hop. With depth d > 0, interest propagated to a neighbour broker
    /// is collapsed to one refcounted `<first d segments>/#` edge per
    /// (neighbour, prefix) — per-broker interest state becomes
    /// O(prefixes), at the cost of some false-positive forwarding inside
    /// a summarized prefix. All brokers of an overlay should agree on the
    /// depth.
    std::size_t interest_summary_depth = 0;
  };

  /// Registers the broker on `backend`, fully configured.
  Broker(transport::NetworkBackend& backend, Options options);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Declares `other` a neighbour broker reachable over an existing link.
  /// Call on both brokers (see connect_brokers in topology.h). Safe at
  /// runtime from the broker's node context (repair re-peering posts in).
  void peer(transport::NodeId other);

  /// Reverses peer(): forgets the neighbour, drops its outbound interest
  /// summaries, and removes every pattern it had announced to us —
  /// patterns left with no other local or remote interest are retracted
  /// from the remaining neighbours, so no stale remote-interest edge keeps
  /// routing traffic toward a dead link. Node context only.
  void unpeer(transport::NodeId other);

  /// Current neighbour set. Node context only (mutated by peer/unpeer).
  [[nodiscard]] const std::set<transport::NodeId>& neighbours() const {
    return neighbours_;
  }

  /// Invoked in the broker's node context whenever the neighbour set
  /// changes: peer() fires (id, true), unpeer() fires (id, false).
  using PeerListener = std::function<void(transport::NodeId, bool added)>;
  void add_peer_listener(PeerListener listener);

  /// Handler for broker-to-broker link-maintenance frames (kKeepalive,
  /// kPeerExchange) — they never enter routing. Unhandled frames are
  /// ignored. A setup call: install before traffic.
  using LinkFrameHandler =
      std::function<void(transport::NodeId from, const FrameView& f)>;
  void set_link_handler(LinkFrameHandler handler);

  /// Sends a link-maintenance frame to a neighbour (node context only).
  void send_link_frame(transport::NodeId to, const Frame& f) {
    send_frame(to, f);
  }

  /// Broker-local service subscription. By default the broker's interest
  /// propagates network-wide so remote publications arrive. With
  /// `local_only` the subscription is suppressed (paper §3.1 Suppress
  /// distribution) and the service only sees messages that entered
  /// routing at THIS broker — from its clients or the broker itself, never
  /// frames forwarded by a neighbour (a neighbour's wider interest edge
  /// can still pull such frames here). Used for the trace-registration
  /// and session topics, which must be served by the broker the entity is
  /// connected to (§3.2), not by every broker. Services matching one
  /// message fire in registration order.
  LocalServiceId subscribe_local(const std::string& pattern,
                                 LocalHandler handler,
                                 bool local_only = false);

  /// Removes one subscribe_local registration; unknown ids are ignored.
  /// Other services on the same pattern keep it alive. When the last one
  /// goes, the broker drops its own interest in the pattern and retracts
  /// it from the neighbours unless a client or neighbour here still wants
  /// it. A message already being dispatched may still reach the removed
  /// handler once.
  void unsubscribe_local(LocalServiceId id);

  /// Declares summarized broker-level interest (see Interest): compiles
  /// the prefix to one wildcard pattern and subscribes `handler` to it via
  /// subscribe_local, producing a single upstream edge however many
  /// concrete topics live below. The batch-first replacement for
  /// subscribing N concrete topics one at a time.
  LocalServiceId register_interest(const Interest& interest,
                                   LocalHandler handler,
                                   bool local_only = false);

  /// Anti-entropy resync of propagated interest. Re-announces every
  /// summarized edge to every current neighbour, back-filling neighbours
  /// that joined after propagation happened and neighbours that lost
  /// state (restart, heal). Receiving-side subscription adds are
  /// idempotent, so resync is always safe to call; it deliberately widens
  /// split-horizon exclusions (a pattern learned from neighbour A is
  /// re-announced to A too), which on an acyclic overlay costs at most
  /// one echoed hop of traffic and can never loop.
  void resync_interest();

  /// Publishes a message *as this broker* (constrainer=Broker topics are
  /// allowed). Encoded once, then routed like any inbound frame.
  void publish_from_broker(Message m);

  /// Appends a dead-client listener (fires after any handler given in
  /// Options, in registration order). A setup call: must complete before
  /// traffic starts.
  void add_client_unreachable_listener(ClientUnreachableHandler handler);

  [[nodiscard]] transport::NodeId node() const { return node_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Consistent counter snapshot; safe from any thread.
  [[nodiscard]] BrokerStats stats() const { return counters_.snapshot(); }
  [[nodiscard]] transport::NetworkBackend& backend() { return backend_; }

  /// Interest edges this broker holds: registered patterns across the
  /// local and remote subscription tables. The per-broker state the E16
  /// scale bench tracks against entity count.
  [[nodiscard]] std::size_t interest_edges() const {
    return local_subs_.pattern_count() + remote_subs_.pattern_count();
  }

  /// Summarized edges this broker has announced upstream, across all
  /// neighbour links (0 when interest_summary_depth is 0 and nothing has
  /// propagated).
  [[nodiscard]] std::size_t summarized_edges() const;

  /// Claimed entity id of a connected client ("" when unknown).
  [[nodiscard]] std::string client_identity(transport::NodeId id) const;

  /// True when `endpoint` has been dropped for repeated misbehaviour.
  [[nodiscard]] bool is_blacklisted(transport::NodeId endpoint) const;

  /// Records one misbehaviour strike; disconnects at the threshold.
  void report_misbehaviour(transport::NodeId endpoint,
                           const std::string& why);

  // --- durable misbehaviour state (no-ops unless configured) ------------

  [[nodiscard]] bool misbehaviour_durable() const {
    return misbehaviour_store_.is_open();
  }
  [[nodiscard]] std::size_t blacklist_size() const {
    return blacklist_.size();
  }

  /// Folds the misbehaviour replay log into a fresh snapshot.
  Status checkpoint_misbehaviour();

  /// Drops in-memory strikes and the blacklist — the process died — then
  /// either recovers them from the durable store (`with_state`) or wipes
  /// the store too (cold restart). Node context only; sessions and
  /// subscriptions are untouched (clients re-register through the normal
  /// failover path), only the offender ledger is at stake here.
  void restart_misbehaviour_state(bool with_state);

  [[nodiscard]] const persist::DurableStore& misbehaviour_store() const {
    return misbehaviour_store_;
  }

 private:
  struct LocalService {
    LocalServiceId id = 0;
    std::string pattern;  // canonical form
    TopicPath compiled;   // pattern split once at registration
    LocalHandler handler;
    bool local_only = false;
  };
  /// Services sorted by id (= registration order).
  using ServiceList = std::vector<std::shared_ptr<const LocalService>>;

  /// Immutable index of the local services (DESIGN.md §9). A wildcard-free
  /// pattern matches exactly one topic, so exact services are bucketed by
  /// a hash of their canonical topic and a match looks in one bucket; only
  /// wildcard services are scanned. Buckets are shared between snapshots,
  /// so a write copies the bucket array and the one bucket it touches.
  struct ServiceIndex {
    static constexpr std::size_t kBuckets = 64;
    std::array<std::shared_ptr<const ServiceList>, kBuckets> exact;
    std::shared_ptr<const ServiceList> wild;
  };

  /// Result of the match stage: everything the send stage needs.
  struct MatchPlan {
    std::shared_ptr<const ServiceIndex> services;  // pins handler lifetimes
    /// Matched services in registration order, owned by *services.
    std::vector<const LocalService*> matched_services;
    std::set<transport::NodeId> local_targets;
    std::set<transport::NodeId> remote_targets;
  };

  void on_packet(transport::NodeId from, BytesView payload);
  void handle_connect(transport::NodeId from, const FrameView& f);
  void handle_subscribe(transport::NodeId from, const FrameView& f);
  void handle_unsubscribe(transport::NodeId from, const FrameView& f);
  void handle_publish(transport::NodeId from, const FrameView& f);

  /// A publish the broker built itself: the owning message, which local
  /// services take as is, and its one encoded buffer, which every
  /// destination shares.
  struct Encoded {
    const Message& message;
    transport::SharedPayload wire;
  };

  /// Routes a publish frame: matches it, then sends it. `encoded` is set
  /// when `f` views a buffer the broker encoded (see Encoded); otherwise
  /// `f` is the inbound frame and its wire bytes are re-sent.
  void route(const FrameView& f, transport::NodeId arrived_from,
             const TopicPath& path,
             const std::optional<ConstrainedTopic>& ct,
             const Encoded* encoded = nullptr);
  /// Match stage. `from_neighbour` hides local-only services from frames
  /// a neighbour broker forwarded.
  [[nodiscard]] MatchPlan compute_match(
      const TopicPath& path, const std::optional<ConstrainedTopic>& ct,
      bool from_neighbour) const;
  /// Send stage: invokes matched local services (materializing one owning
  /// copy of an inbound frame for them), then sends one shared buffer to
  /// every destination.
  void execute_send(const FrameView& f, transport::NodeId arrived_from,
                    const MatchPlan& plan, const Encoded* encoded);

  /// Interest propagation to neighbour brokers (split horizon: `except`
  /// is skipped; pass kInvalidNode to address all neighbours). With
  /// summarization on, both consult the per-neighbour summary tables and
  /// emit only edge-creating announces / edge-emptying retractions.
  void propagate_subscribe(const TopicPath& compiled,
                           const std::string& pattern,
                           transport::NodeId except);
  void propagate_unsubscribe(const TopicPath& compiled,
                             const std::string& pattern,
                             transport::NodeId except);
  /// Retracts `emptied` patterns (table entries that just lost their last
  /// subscriber) from every neighbour, except those some other local or
  /// remote interest here still covers.
  void retract_unwanted(const std::vector<std::string>& emptied);
  /// The (lazily created) summary table for one neighbour link.
  InterestSummaryTable& summary_for(transport::NodeId neighbour);

  void send_frame(transport::NodeId to, const Frame& f);

  void open_misbehaviour_store();
  void persist_strike(transport::NodeId endpoint, int strikes,
                      bool blacklisted);
  void apply_misbehaviour_record(BytesView rec);
  void apply_misbehaviour_snapshot(BytesView blob);
  [[nodiscard]] Bytes misbehaviour_blob() const;
  /// Sends pre-serialized frame bytes (shared across a fan-out) with the
  /// same unreachable-client bookkeeping as send_frame.
  void send_wire(transport::NodeId to, transport::SharedPayload wire);
  /// Common kUnavailable teardown for send_frame/send_wire.
  void note_send_status(transport::NodeId to, const Status& s);
  [[nodiscard]] bool is_neighbour(transport::NodeId id) const {
    return neighbours_.contains(id);
  }

  transport::NetworkBackend& backend_;
  std::string name_;
  transport::NodeId node_;
  int misbehaviour_threshold_;

  std::set<transport::NodeId> neighbours_;
  /// Outbound interest summaries, one table per neighbour link (see
  /// interest_summary.h). Maintained at depth 0 too — the tables then
  /// record verbatim announcements so resync_interest() works in both
  /// modes — but propagation *decisions* at depth 0 are byte-identical to
  /// the legacy re-announce-everything behaviour.
  std::map<transport::NodeId, InterestSummaryTable> summaries_;
  std::size_t summary_depth_ = 0;
  std::map<transport::NodeId, std::string> clients_;  // node -> entity id
  SubscriptionTable local_subs_;   // clients attached here
  SubscriptionTable remote_subs_;  // neighbour brokers' interest
  /// Immutable snapshot of the local-service index; republished on
  /// subscribe_local/unsubscribe_local, so handlers may add or remove
  /// services while a send stage iterates the snapshot it matched.
  AtomicSharedPtr<const ServiceIndex> local_services_;
  LocalServiceId last_service_id_ = 0;
  MessageFilter filter_;
  std::vector<ClientUnreachableHandler> unreachable_listeners_;
  std::vector<PeerListener> peer_listeners_;
  LinkFrameHandler link_handler_;
  std::map<transport::NodeId, int> strikes_;
  std::set<transport::NodeId> blacklist_;
  persist::DurableStore misbehaviour_store_;
  persist::FsyncPolicy misbehaviour_fsync_ = persist::FsyncPolicy::kNever;
  std::string misbehaviour_dir_;
  BrokerCounters counters_;
  std::uint64_t sequence_ = 0;
};

}  // namespace et::pubsub
