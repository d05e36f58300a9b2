// The tracker client (paper §3.4/§3.5/§5.1).
//
// "Trackers interested in receiving traces corresponding to an entity must
// first discover the trace topic that has been registered by that entity."
// A tracker:
//   * runs the authorized discovery query (/Liveness/<entity-id>) — if it
//     is not on the entity's discovery-restriction list the TDN stays
//     silent and tracking fails with kNotFound;
//   * subscribes selectively to the per-category derived topics;
//   * verifies every received trace message end-to-end before surfacing
//     it, through verify_trace_message(), the check every broker's filter
//     runs (token_verify_cache.h): the token chain once per distinct token
//     through the tracker's own TokenVerifyCache (sized by
//     TracingConfig::Verification's defaults), then per message the
//     token's publish rights, its trace topic and the delegate signature.
//     A batch message (one
//     session's traces from one event-loop pass under one signature,
//     DESIGN.md §14) is decoded whole and handed to the handler entry by
//     entry, in order; a malformed batch is rejected once and none of its
//     entries reaches the handler;
//   * expands a host's digests (DESIGN.md §14) through the roster it
//     caches per trace topic: every set bit of a digest's liveness
//     bitmaps is one member's ALLS_WELL. The roster arrives inside a
//     digest; a digest whose roster epoch it holds no roster for is
//     skipped and counted, and the tracker asks for the roster once per
//     epoch with an immediate interest response;
//   * answers GAUGE_INTEREST probes with its interest set, credential and
//     held roster epoch, and requests/uses the sealed trace key when
//     traces are encrypted.
#pragma once

#include <functional>
#include <map>
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
#include "src/tracing/token_verify_cache.h"
#include "src/tracing/trace_message.h"

namespace et::tracing {

/// Counters for tests/benches.
struct TrackerStats {
  std::uint64_t traces_received = 0;   // verified, per batch/digest entry
  std::uint64_t traces_rejected = 0;   // failed checks or malformed bodies
  std::uint64_t undecryptable = 0;     // encrypted, no (valid) key yet
  std::uint64_t gauges_answered = 0;
  std::uint64_t keys_received = 0;
  std::uint64_t digests_received = 0;  // verified digest messages
  std::uint64_t digest_entries_expanded = 0;  // per-entity payloads from them
  std::uint64_t digests_without_roster = 0;   // skipped: epoch not held
};

class Tracker {
 public:
  /// Delivered for every verified (and, when needed, decrypted) trace.
  using TraceHandler =
      std::function<void(const TracePayload&, const pubsub::Message&)>;

  Tracker(transport::NetworkBackend& backend, crypto::Identity identity,
          TrustAnchors anchors, std::uint64_t seed);

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  void attach_tdn(transport::NodeId tdn, const transport::LinkParams& params);
  void connect_broker(transport::NodeId broker,
                      const transport::LinkParams& params);

  using ReadyCallback = std::function<void(const Status&)>;

  /// Starts tracking `entity_id` for the given TraceCategory mask.
  /// Discovery failure (unauthorized/unknown) reports kNotFound.
  void track(const std::string& entity_id, std::uint8_t categories,
             TraceHandler handler, ReadyCallback on_ready = nullptr);

  /// Tracks an EntityHost's batch session (DESIGN.md §14). Identical to
  /// track(host_id, ...) — the name documents the semantics: the handler
  /// fires once per *member entity* observation; coalesced digests are
  /// verified, decrypted and expanded before delivery, so per-entity
  /// handlers never see the batching.
  void track_host(const std::string& host_id, std::uint8_t categories,
                  TraceHandler handler, ReadyCallback on_ready = nullptr) {
    track(host_id, categories, std::move(handler), std::move(on_ready));
  }

  /// Stops tracking `entity_id`: unsubscribes every associated topic and
  /// stops answering its gauge probes, so the broker's interest record
  /// for this tracker expires after the TTL (§3.5).
  void untrack(const std::string& entity_id);

  /// Number of entities currently tracked.
  [[nodiscard]] std::size_t tracked_count() const { return tracked_.size(); }

  [[nodiscard]] const std::string& tracker_id() const { return identity_.id; }
  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  /// The token cache's counters. Safe from any thread (relaxed atomics).
  [[nodiscard]] TokenCacheStats token_cache_stats() const {
    return token_cache_.stats();
  }
  [[nodiscard]] pubsub::Client& client() { return client_; }

 private:
  struct Tracked {
    std::string entity_id;
    discovery::TopicAdvertisement advertisement;
    std::string trace_topic;  // UUID string
    std::uint8_t categories = 0;
    TraceHandler handler;
    crypto::SecretKey trace_key;
    /// The host's roster (member ids in liveness-bit order) and the epoch
    /// naming it; epoch 0 = none yet.
    std::uint64_t roster_epoch = 0;
    std::vector<std::string> roster;
    /// Epoch whose roster was last asked for, so each is asked once.
    std::uint64_t roster_asked = 0;
  };

  void begin_subscriptions(Tracked t, ReadyCallback on_ready);
  void on_trace(const std::string& trace_topic, const pubsub::Message& m);
  void on_digest(const std::string& trace_topic, const pubsub::Message& m);
  /// verify_trace_message() for per-entity traces and digests alike
  /// (§4.3), plus decryption when the payload is sealed with the trace
  /// key. Returns the plaintext body or nullopt
  /// (counters already bumped).
  std::optional<Bytes> verify_and_open(Tracked& t,
                                       const std::string& trace_topic,
                                       const pubsub::Message& m);
  void respond_interest(Tracked& t, bool secured);
  void on_key_delivery(const std::string& trace_topic,
                       const pubsub::Message& m);
  [[nodiscard]] std::string key_topic_for(const Tracked& t) const;

  transport::NetworkBackend& backend_;
  crypto::Identity identity_;
  TrustAnchors anchors_;
  Rng rng_;
  pubsub::Client client_;
  discovery::DiscoveryClient disc_;
  std::map<std::string, Tracked> tracked_;  // keyed by trace-topic string
  std::uint64_t sequence_ = 0;
  TrackerStats stats_;
  TokenVerifyCache token_cache_;
};

}  // namespace et::tracing
