// The entity side of a tracing session (paper §3.1/§3.2, §3.3, §4.2,
// §4.3, §6.3; DESIGN.md §11 and §14).
//
// A traced entity, or a host process running many co-hosted entities,
// composes a pub/sub client and a discovery client and walks the paper's
// sequence for its roster:
//   1. create the trace topic at a TDN (credential + descriptor
//      `Availability/Traces/<id>` + discovery restrictions + lifetime)
//      and receive the signed advertisement;
//   2. register with its broker — the request carries the advertisement
//      and is signed to prove private-key possession. A single entity
//      sends a RegistrationRequest on the Registration constrained topic;
//      a host sends ONE BatchRegistrationRequest naming its whole roster
//      on RegistrationBatch;
//   3. decrypt the hybrid-encrypted registration response (session id +
//      session key), subscribe to the session's ping topic;
//   4. generate a fresh delegate key pair, mint the authorization token
//      and deliver {token, delegate private key} to the broker over the
//      encrypted session channel — plus the secret trace key when
//      confidential traces are requested (§5.1). One delegation covers
//      the whole roster, so re-minting costs O(1) per session;
//   5. answer pings, signing every message (§4.2) or encrypting with the
//      session key instead (§6.3 mode). Each response carries a liveness
//      bitmap sized to the roster (bit i = roster member i). A single
//      entity's roster is empty, so its bitmap is empty, which the broker
//      reads as "every member answered".
//
// When the hosting broker goes silent, a watchdog re-homes the whole
// session: find_broker via the TDN -> connect -> resubscribe ->
// re-register -> re-mint the delegation (DESIGN.md §11).
//
// TracedEntity and EntityHost are the public front ends. All session state
// is touched in the client's node context only.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/credential.h"
#include "src/crypto/secret_key.h"
#include "src/discovery/discovery_client.h"
#include "src/pubsub/client.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/config.h"
#include "src/tracing/registration.h"
#include "src/tracing/trace_message.h"

namespace et::tracing {

/// Counters for tests/benches.
struct EntitySessionStats {
  std::uint64_t pings_received = 0;
  std::uint64_t pings_answered = 0;
  std::uint64_t reports_sent = 0;       // state/load reports
  std::uint64_t registrations = 0;      // accepted registration responses
  std::uint64_t failover_attempts = 0;  // find_broker rounds started
  std::uint64_t failovers = 0;          // completed re-registrations
};

class EntitySession {
 public:
  using ReadyCallback = std::function<void(const Status&)>;

  EntitySession(const EntitySession&) = delete;
  EntitySession& operator=(const EntitySession&) = delete;

  /// Links the discovery client to a TDN.
  void attach_tdn(transport::NodeId tdn, const transport::LinkParams& params);

  /// Connects the pub/sub client to a broker.
  void connect_broker(transport::NodeId broker,
                      const transport::LinkParams& params);

  /// Bench hook: pre-generated delegate key pair to reuse instead of
  /// minting a fresh one per delegation. RSA keygen dominates setup time
  /// at bench scale and is not what E16 measures. Must be called before
  /// registering; production callers should not use it (a fresh delegate
  /// pair per delegation is the §4.3 hygiene).
  void set_delegate_keys(crypto::RsaKeyPair keys);

  /// §3.3 "disable tracing": tells the broker to publish
  /// REVERTING_TO_SILENT_MODE and drop the session.
  void stop_tracing();

  /// Abrupt departure: severs the broker link without notice. The hosting
  /// broker publishes a DISCONNECT trace per member when it next fails to
  /// reach us.
  void disconnect();

  /// Re-delegates immediately: fresh delegate key pair + token delivered
  /// to the broker (§4.3 token renewal). Runs automatically near expiry
  /// when TracingConfig::auto_renew_tokens is set.
  void renew_token();

  /// Failure injection: while false, pings are swallowed (a hung entity
  /// or host), which drives the broker's suspicion/failure escalation for
  /// every member.
  void set_responsive(bool responsive);

  /// True while the session is hunting for a replacement broker after its
  /// hosting broker went silent (TracingConfig::broker_silence_timeout).
  [[nodiscard]] bool failing_over() const { return failing_over_; }

  [[nodiscard]] const Uuid& trace_topic() const { return trace_topic_; }
  [[nodiscard]] const Uuid& session_id() const { return session_id_; }
  [[nodiscard]] bool tracing_active() const { return active_; }
  [[nodiscard]] const discovery::TopicAdvertisement& advertisement() const {
    return advertisement_;
  }
  [[nodiscard]] const EntitySessionStats& stats() const { return stats_; }
  [[nodiscard]] pubsub::Client& client() { return client_; }

 protected:
  /// `batch` registers with a BatchRegistrationRequest naming the roster
  /// instead of a single-entity RegistrationRequest.
  EntitySession(transport::NetworkBackend& backend, crypto::Identity identity,
                TrustAnchors anchors, TracingConfig config, std::uint64_t seed,
                bool batch);

  /// Cancels the session's timers; member clients detach their nodes.
  /// Protected and non-virtual: front ends are never deleted through it.
  ~EntitySession();

  /// Runs steps 1-4 above for `roster` (the registration order; empty for
  /// a single entity). `restrictions` controls who may discover the trace
  /// topic. `on_ready` fires once the delegation is delivered (or with the
  /// first error). Starting again replaces the previous roster.
  void start(discovery::DiscoveryRestrictions restrictions,
             std::vector<std::string> roster, ReadyCallback on_ready);

  /// Sends a state or load report on the session channel and counts it.
  void send_report(const SessionMessage& sm);

  transport::NetworkBackend& backend_;
  crypto::Identity identity_;
  TracingConfig config_;
  pubsub::Client client_;
  std::vector<std::string> roster_;  // registration order = liveness bits
  std::vector<std::uint8_t> alive_;  // parallel to roster_
  bool active_ = false;
  /// Runs in the client context once a failover has re-registered.
  std::function<void()> after_failover_;

 private:
  void register_with_broker(ReadyCallback on_ready);
  void on_registration_response(const pubsub::Message& m);
  void deliver_delegation(ReadyCallback on_ready);
  void on_ping(const pubsub::Message& m);
  // Broker-silence failover (DESIGN.md §11). All run in the client context.
  void arm_watchdog();
  void on_watchdog();
  void begin_failover();
  void attempt_failover();
  void failover_backoff();
  void finish_failover();
  /// Sends a session message, authenticated per the configured mode.
  /// Token/key deliveries are always encrypted regardless of mode.
  void send_session_message(const SessionMessage& sm, bool force_encrypt);

  const bool batch_;
  TrustAnchors anchors_;
  Rng rng_;
  discovery::DiscoveryClient disc_;  // created after client_ (node order)
  discovery::TopicAdvertisement advertisement_;
  Uuid trace_topic_;
  Uuid session_id_;
  crypto::SecretKey session_key_;
  crypto::SecretKey trace_key_;
  std::optional<crypto::RsaKeyPair> preset_delegate_;
  std::uint64_t registration_request_id_ = 0;
  /// Completion callback of the registration in flight; consumed exactly
  /// once per attempt (re-registration replaces it).
  ReadyCallback pending_ready_;
  bool registration_subscribed_ = false;
  std::uint64_t sequence_ = 0;
  transport::TimerId renewal_timer_ = 0;
  bool responsive_ = true;
  // Failover state. `failover_gen_` versions the in-flight attempt so
  // stale discovery/connect/registration callbacks are ignored.
  transport::LinkParams broker_params_{};
  TimePoint last_broker_activity_ = 0;
  transport::TimerId watchdog_timer_ = 0;
  transport::TimerId failover_timer_ = 0;  // backoff OR per-attempt timeout
  bool failing_over_ = false;
  std::uint64_t failover_gen_ = 0;
  RetryState failover_retry_ = RetryState(RetryPolicy::none(), 0);
  EntitySessionStats stats_;
};

}  // namespace et::tracing
