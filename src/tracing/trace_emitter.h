// One emission path for every signed trace publication.
//
// Every trace a hosting broker publishes goes through the same ritual:
// stamp publisher/sequence/timestamp, attach the entity's authorization
// token, sign with the delegate key (§4.3), optionally encrypt with the
// trace key (§5.1), hand to the broker. That ritual used to be duplicated
// across publish_trace, the gauge probe, and the per-entity heartbeat
// path; `TraceEmitter` folds it into one place.
//
// `trace()` always publishes one per-entity message, after flushing the
// host's pending digest so trackers never observe a suspicion or a
// recovery before the heartbeats that preceded it. With
// `Options::digest_interval > 0` the hosting broker hands plain
// heartbeats to `fold()` instead: each ping response's heartbeats become
// one liveness bitmap in the host's pending `TraceDigest` (DESIGN.md §14),
// which flushes as one signed message per interval, or early once it
// holds `digest_max_entries` observations. At flush the digest asks the
// broker's roster source whether it owes trackers the roster. With
// `digest_interval == 0` nothing is folded and every heartbeat travels
// per-entity, byte-identical to the historical behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/timer_wheel.h"
#include "src/crypto/rsa.h"
#include "src/crypto/secret_key.h"
#include "src/persist/ledger.h"
#include "src/pubsub/broker.h"
#include "src/pubsub/client.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/trace_digest.h"
#include "src/tracing/trace_message.h"

namespace et::tracing {

class TraceEmitter {
 public:
  struct Options {
    /// 0 = per-entity passthrough; > 0 = fold plain ALLS_WELL heartbeats
    /// into one digest per host per interval.
    Duration digest_interval = 0;
    /// Flush a pending digest early once it holds this many observations.
    std::size_t digest_max_entries = 256;
  };

  /// Borrowed signing material for one session; valid for the duration of
  /// the call only (the emitter copies what it must keep for pending
  /// digests).
  struct Signing {
    std::string trace_topic;  // UUID string minted by the TDN
    const AuthorizationToken* token = nullptr;
    const crypto::RsaPrivateKey* delegate_key = nullptr;
    const crypto::SecretKey* trace_key = nullptr;
    bool secure = false;
  };

  /// One ping response's plain heartbeats over a host's roster.
  struct Heartbeats {
    std::uint64_t epoch = 0;    // the roster's epoch
    std::uint32_t members = 0;  // roster size
    /// Bit i (LSB first) is set when roster member i answered and is
    /// neither suspected nor failed; (members + 7) / 8 bytes.
    Bytes bits;
    std::size_t count = 0;  // set bits
  };

  /// The roster a host's digest owes trackers, in bit order, or an empty
  /// list when it owes none. Asked once per digest flush.
  using RosterSource = std::function<std::vector<std::string>(
      const std::string& host_id, std::uint64_t epoch)>;

  struct Stats {
    std::uint64_t traces_published = 0;   // per-entity messages
    std::uint64_t digests_published = 0;  // digest messages
    std::uint64_t digest_entries = 0;     // observations carried in digests
  };

  /// `wheel` is required when `options.digest_interval > 0` (flush timers
  /// ride the coalescing wheel); it may be null in passthrough mode.
  TraceEmitter(pubsub::Broker& broker, Rng& rng, Options options,
               TimerWheel* wheel = nullptr, RosterSource roster = nullptr);
  /// Passthrough emitter: per-entity publication, no coalescing.
  TraceEmitter(pubsub::Broker& broker, Rng& rng)
      : TraceEmitter(broker, rng, Options()) {}
  ~TraceEmitter();

  TraceEmitter(const TraceEmitter&) = delete;
  TraceEmitter& operator=(const TraceEmitter&) = delete;

  /// True when plain heartbeats go to fold() rather than trace().
  [[nodiscard]] bool digests() const {
    return options_.digest_interval > 0 && wheel_ != nullptr;
  }

  /// Publishes one per-entity observation, after flushing `host_id`'s
  /// pending digest (`host_id` is the traced host for batch sessions, the
  /// entity itself otherwise). The payload's issued_at/secured fields are
  /// stamped here.
  void trace(const Signing& signing, const std::string& host_id,
             TracePayload payload);

  /// Folds one ping response's heartbeats into `host_id`'s pending digest
  /// as one bitmap (digests() only). A digest that reaches
  /// digest_max_entries observations flushes at once and the rest of the
  /// response opens the next one.
  void fold(const Signing& signing, const std::string& host_id,
            const Heartbeats& beats);

  /// Publishes an already-serialized payload on an explicit topic with the
  /// standard token + delegate signature, never encrypted or coalesced
  /// (gauge probes ride the Interest topic in the clear, §5.1).
  void publish_raw(const Signing& signing, std::string topic, Bytes payload);

  /// Publishes `host_id`'s pending digest now, if any.
  void flush(const std::string& host_id);
  void flush_all();

  [[nodiscard]] std::size_t pending_digests() const {
    return pending_.size();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attaches a tamper-evident ledger (DESIGN.md §16): every signed trace
  /// and digest publication is appended to its publication topic's hash
  /// chain — pre-encryption body plus the delegate signature — before the
  /// message enters routing. Gauge probes (publish_raw) are not ledgered:
  /// they are periodic cleartext measurements, not availability history.
  /// Null detaches. The ledger must outlive the emitter.
  void set_ledger(persist::TraceLedger* ledger) { ledger_ = ledger; }

 private:
  /// One host's accumulating digest plus owned copies of its signing
  /// material (the session may be gone by flush time).
  struct Pending {
    TraceDigest digest;
    std::size_t entries = 0;  // observations: set bits over all bitmaps
    std::string trace_topic;
    AuthorizationToken token;
    crypto::RsaPrivateKey delegate_key;
    crypto::SecretKey trace_key;
    bool secure = false;
    TimerWheel::WheelId flush_timer = 0;
  };

  /// Ledger metadata for one publication; null skips the ledger (gauge
  /// probes).
  struct LedgerMeta {
    std::string entity_id;
    std::uint8_t trace_type = 0;
    TimePoint issued_at = 0;
  };

  /// `host_id`'s pending digest, opened over `beats`' roster (with its
  /// flush timer) when there is none.
  Pending& pending_for(const Signing& signing, const std::string& host_id,
                       const Heartbeats& beats);

  void publish_signed(std::string topic, Bytes body, bool encrypt,
                      const crypto::SecretKey& trace_key,
                      const AuthorizationToken& token,
                      const crypto::RsaPrivateKey& delegate_key,
                      const LedgerMeta* meta = nullptr);

  pubsub::Broker& broker_;
  Rng& rng_;
  Options options_;
  TimerWheel* wheel_;
  RosterSource roster_;
  std::uint64_t sequence_ = 0;
  std::map<std::string, Pending> pending_;
  Stats stats_;
  persist::TraceLedger* ledger_ = nullptr;
};

/// Client-side counterpart of the emitter's signing tail: stamp
/// publisher/sequence/timestamp, sign with `key`, publish through
/// `client`. Shared by the tracker's interest responses and the traced
/// entity's registration/session messages.
void publish_signed(pubsub::Client& client, pubsub::Message m,
                    const crypto::RsaPrivateKey& key, std::uint64_t& sequence,
                    TimePoint now);

}  // namespace et::tracing
