// The tracing service hosted on a broker (paper §3.2/§3.3/§3.5/§5.1).
//
// "In addition to the traced entity and the trackers ... there is an
// additional component: the broker which the traced entity is connected
// to. This broker is responsible for polling — the pull part — the traced
// entity at regular intervals and for generating — the push part — traces
// for the traced entity."
//
// Attach a TracingBrokerService to any pubsub::Broker to make it a hosting
// broker. The service:
//   * verifies trace registrations (credential chain + proof of
//     possession + advertisement provenance) and mints sessions with
//     hybrid-encrypted responses (§3.2). Every session holds a roster: a
//     single-entity registration's roster is the entity itself, a batch
//     registration's the whole co-hosted roster (DESIGN.md §14);
//   * pings each session on an adaptive interval, maintains the
//     last-10-pings window, and escalates FAILURE_SUSPICION -> FAILED on
//     consecutive misses (§3.3) per roster member: one ping covers the
//     roster and the response's liveness bitmap (empty = every member)
//     says which members answered;
//   * publishes traces on the per-category derived topics through a
//     TraceEmitter, every message carrying the entity's authorization
//     token and a delegate-key signature (§4.3); a session's traces from
//     one event-loop pass share one message, cut before its gauge probe,
//     a change of signing material or teardown; with digests enabled, a
//     ping response's plain heartbeats become one liveness bitmap folded
//     into the host's signed digest, and the digest carries the roster
//     when it owes it (the session's first digest, or a tracker reported
//     lacking the session's roster epoch);
//   * gauges tracker interest periodically and publishes a category only
//     while some tracker wants it (§3.5); unsolicited interest responses
//     are also accepted (extension, documented in DESIGN.md);
//   * distributes the secret trace key to authorized trackers via sealed
//     envelopes and encrypts traces with it when the entity asked for
//     confidentiality (§5.1).
//
// All session timers ride a coalescing TimerWheel, so armed backend
// timers are O(distinct deadlines), not O(sessions), once
// TracingConfig::timer_wheel_tick is set. Member records live in a
// SlotArena so broker memory per entity is a measured constant.
//
// All state is touched in the broker's node context only.
//
// Lifetime: the service must be destroyed before its broker (every owner
// declares its brokers' Topology ahead of the services). Its destructor
// unhooks what it registered on the broker — the registration services,
// each live session's session and interest-response services — and
// leaves its client-unreachable listener inert, so a broker that outlives
// the service never calls into it again.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/common/timer_wheel.h"
#include "src/common/uuid.h"
#include "src/pubsub/broker.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/config.h"
#include "src/tracing/registration.h"
#include "src/tracing/trace_emitter.h"
#include "src/tracing/trace_message.h"

namespace et::tracing {

/// Counters for tests and benchmarks.
struct TracingBrokerStats {
  std::uint64_t registrations = 0;
  std::uint64_t batch_registrations = 0;  // batch requests (not members)
  std::uint64_t rejected_registrations = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t ping_responses = 0;
  std::uint64_t rejected_session_messages = 0;
  std::uint64_t traces_published = 0;  // observations (digest entries count)
  std::uint64_t traces_suppressed_no_interest = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t failures = 0;
  std::uint64_t disconnects = 0;  // ping-loop "presumed departed" teardowns
  std::uint64_t keys_distributed = 0;
  std::uint64_t interest_responses = 0;
};

class TracingBrokerService {
 public:
  TracingBrokerService(pubsub::Broker& broker, TrustAnchors anchors,
                       TracingConfig config, std::uint64_t seed);

  ~TracingBrokerService();

  TracingBrokerService(const TracingBrokerService&) = delete;
  TracingBrokerService& operator=(const TracingBrokerService&) = delete;

  [[nodiscard]] const TracingBrokerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_sessions() const { return sessions_.size(); }
  [[nodiscard]] bool has_session_for(const std::string& entity_id) const;

  /// Message-level emission counters (digests vs per-entity traces).
  [[nodiscard]] const TraceEmitter::Stats& emitter_stats() const {
    return emitter_.stats();
  }

  /// Attaches a tamper-evident trace ledger to this broker's emission
  /// path (DESIGN.md §16); null detaches. The ledger must outlive the
  /// service. Install before traffic, like other setup calls.
  void set_trace_ledger(persist::TraceLedger* ledger) {
    emitter_.set_ledger(ledger);
  }
  /// Logical-vs-armed timer accounting for the session timer wheel.
  [[nodiscard]] TimerWheel::Stats timer_stats() const {
    return wheel_.stats();
  }
  /// Heap footprint of the member roster arena (bytes/entity accounting).
  [[nodiscard]] std::size_t roster_bytes() const { return roster_.bytes(); }
  [[nodiscard]] std::size_t roster_size() const { return roster_.size(); }

  /// Ping-window diagnostics for one traced entity (tests). The flags
  /// come from its roster record; interval/interest are its session's.
  struct SessionView {
    bool exists = false;
    bool suspected = false;
    bool failed = false;
    Duration current_ping_interval = 0;
    std::uint8_t effective_interest = 0;
    bool secure = false;
  };
  [[nodiscard]] SessionView session_view(const std::string& entity_id) const;

 private:
  struct PingRecord {
    std::uint64_t number = 0;
    TimePoint sent_at = 0;
    bool responded = false;
    Duration rtt = 0;
    bool out_of_order = false;
  };
  struct TrackerInterest {
    std::uint8_t mask = 0;
    std::uint64_t last_round = 0;
  };
  /// One roster member of a session. Lives in the roster arena; the
  /// session holds handles in registration order (= liveness bit order).
  struct MemberRecord {
    std::string entity_id;
    int consecutive_misses = 0;
    bool suspected = false;
    bool failed = false;
  };
  struct Session {
    Uuid session_id;
    std::string entity_id;  // the host id for batch sessions
    std::string trace_topic;  // UUID string
    crypto::Credential credential;
    discovery::TopicAdvertisement advertisement;
    crypto::SecretKey session_key;
    AuthorizationToken token;
    crypto::RsaPrivateKey delegate_key;
    crypto::SecretKey trace_key;
    bool secure = false;
    bool join_published = false;
    /// Last state the entity reported; replayed to the first tracker whose
    /// interest arrives after the report was suppressed (a session minted
    /// by broker failover has no recorded interest yet, and its
    /// RECOVERING announcement must not vanish).
    std::optional<EntityState> last_state;
    /// Roster handles, in liveness-bit order. A single-entity session's
    /// roster is the entity itself.
    std::vector<SlotArena<MemberRecord>::Handle> members;
    /// Names this session's roster in its digests (DESIGN.md §14): unique
    /// per session, never 0.
    std::uint64_t roster_epoch = 0;
    /// The next digest carries the roster: set at mint and whenever a
    /// heartbeat tracker reports another epoch, cleared when a digest
    /// takes it.
    bool roster_owed = true;

    Duration ping_interval = 0;
    std::uint64_t next_ping_number = 1;
    std::uint64_t last_responded = 0;
    int consecutive_misses = 0;  // whole-session misses (ping cadence)
    std::deque<PingRecord> window;  // last N pings
    std::map<std::uint64_t, TimePoint> outstanding;

    std::uint64_t gauge_round = 0;
    std::map<std::string, TrackerInterest> interests;

    TimerWheel::WheelId ping_timer = 0;
    TimerWheel::WheelId gauge_timer = 0;
    TimerWheel::WheelId metrics_timer = 0;

    /// The broker services serving this session (its entity->broker topic
    /// and its interest-response topic); released on teardown.
    pubsub::LocalServiceId session_service = 0;
    pubsub::LocalServiceId interest_service = 0;
  };

  void handle_registration(const pubsub::Message& m);
  void handle_batch_registration(const pubsub::Message& m);
  /// The shared verification steps of §3.2 (credential chain, proof of
  /// possession, subject match, advertisement provenance + ownership).
  /// Publishes the error and bumps the reject counter on failure.
  bool verify_registration(const pubsub::Message& m, const std::string& id,
                           const crypto::Credential& credential,
                           const discovery::TopicAdvertisement& advertisement,
                           std::uint64_t request_id);
  /// Mints the session over the roster `member_ids`, wires its
  /// topics/timers and sends the sealed response.
  void mint_session(const std::string& id, const crypto::Credential& cred,
                    const discovery::TopicAdvertisement& ad,
                    std::uint64_t request_id,
                    std::vector<std::string> member_ids);
  void handle_session_message(const Uuid& session_id,
                              const pubsub::Message& m);
  void handle_interest_response(const Uuid& session_id,
                                const pubsub::Message& m);
  void on_ping_timer(const Uuid& session_id);
  void on_gauge_timer(const Uuid& session_id);
  void on_metrics_timer(const Uuid& session_id);
  void handle_ping_response(Session& s, const SessionMessage& sm);
  void handle_token_delivery(Session& s, const SessionMessage& sm);
  void deliver_trace_key(Session& s, const InterestResponse& resp);
  /// Publishes one per-entity trace if some tracker wants its category.
  /// `earlier` holds heartbeats of the ping response being fanned out that
  /// precede this trace; they are folded into the digest first.
  void publish_trace(Session& s, TracePayload payload,
                     TraceEmitter::Heartbeats* earlier = nullptr);
  /// Hands `beats` to the emitter as one bitmap and clears it.
  void fold_heartbeats(Session& s, TraceEmitter::Heartbeats& beats);
  /// The emitter's roster source: `host_id`'s member ids when its session
  /// has `epoch` and owes the roster (which it then no longer does).
  std::vector<std::string> owed_roster(const std::string& host_id,
                                       std::uint64_t epoch);
  /// The failure ladder, per roster member. Both may reentrantly tear the
  /// session down; callers re-check liveness.
  void member_miss(Session& s, MemberRecord& rec,
                   TraceEmitter::Heartbeats* earlier = nullptr);
  void member_alive(Session& s, MemberRecord& rec,
                    TraceEmitter::Heartbeats& earlier);
  /// Publishes DISCONNECT for every member, then tears the session down.
  void disconnect_session(Session& s, const std::string& detail);
  void publish_registration_error(const std::string& entity_id,
                                  std::uint64_t request_id,
                                  const std::string& error);
  /// Tears a session down: flushes its pending digest, cancels its
  /// timers, releases its broker services, frees roster records and
  /// erases every by_entity_ alias. `s` must belong to sessions_; the
  /// reference is dead afterwards.
  void erase_session(Session& s);
  [[nodiscard]] std::uint8_t effective_interest(const Session& s) const;
  [[nodiscard]] TraceEmitter::Signing signing(const Session& s) const;

  /// Decrypts/authenticates an entity->broker session message per the
  /// configured signing mode. Returns the decoded message or an error.
  Result<SessionMessage> authenticate_session_message(
      Session& s, const pubsub::Message& m) const;

  pubsub::Broker& broker_;
  TrustAnchors anchors_;
  TracingConfig config_;
  Rng rng_;
  TimerWheel wheel_;
  TraceEmitter emitter_;
  std::map<Uuid, Session> sessions_;
  /// entity id -> session; roster members alias their session.
  std::map<std::string, Uuid> by_entity_;
  SlotArena<MemberRecord> roster_;
  TracingBrokerStats stats_;
  pubsub::LocalServiceId registration_service_ = 0;
  pubsub::LocalServiceId batch_registration_service_ = 0;
  /// Expires with the service; the client-unreachable listener, which the
  /// broker keeps, checks it first.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace et::tracing
