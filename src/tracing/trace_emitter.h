// One emission path for every signed trace publication.
//
// Every trace a hosting broker publishes goes through the same ritual:
// stamp publisher/sequence/timestamp, attach the entity's authorization
// token, sign with the delegate key (§4.3), optionally encrypt with the
// trace key (§5.1), hand to the broker. `TraceEmitter` owns that ritual
// for per-entity traces, digests and gauge probes.
//
// `trace()` does not sign inline. It appends the serialized payload to its
// session's open batch, which is bound for one publication topic, and the
// first batch opened in an event-loop pass posts one flush task to the
// broker's node, so batches close after the work already queued there.
// The flush publishes a batch of one as exactly the message a lone trace
// always was; k > 1 traces become one `TraceType::kBatch` body
// (trace_message.h) that is encrypted, signed and ledgered once, and that
// trackers expand back into the k traces in order (DESIGN.md §14, "Trace
// batches"). A batch is cut — published at once — when the session's next
// trace is bound for another topic or the batch holds kTraceBatchMax
// traces, and before the session's heartbeats fold, its gauge probe goes
// out, its signing material changes or it is torn down (the last two are
// the service's calls to cut()/flush()). So a session's publications keep
// the order they were made in.
//
// Before a trace joins a batch, the host's pending digest is flushed, so
// trackers never observe a suspicion or a recovery before the heartbeats
// that preceded it. With `Options::digest_interval > 0` the hosting
// broker hands plain heartbeats to `fold()` instead of `trace()`: each
// ping response's heartbeats become one liveness bitmap in the host's
// pending `TraceDigest` (DESIGN.md §14), which flushes as one signed
// message per interval, or early once it holds `digest_max_entries`
// observations. At flush the digest asks the broker's roster source
// whether it owes trackers the roster. With `digest_interval == 0`
// nothing is folded and every heartbeat travels as a trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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
  /// the call only (the emitter copies what it must keep for open batches
  /// and pending digests).
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
    std::uint64_t traces_published = 0;   // trace messages (batches count 1)
    std::uint64_t trace_entries = 0;      // traces those messages carried
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

  /// Adds one per-entity observation to `host_id`'s open batch, after
  /// flushing `host_id`'s pending digest (`host_id` is the traced host for
  /// batch sessions, the entity itself otherwise). The payload's
  /// issued_at/secured fields are stamped here; it is published by the
  /// pass's flush task or by an earlier cut.
  void trace(const Signing& signing, const std::string& host_id,
             TracePayload payload);

  /// Cuts `host_id`'s open batch, then folds one ping response's
  /// heartbeats into its pending digest as one bitmap (digests() only). A
  /// digest that reaches digest_max_entries observations flushes at once
  /// and the rest of the response opens the next one.
  void fold(const Signing& signing, const std::string& host_id,
            const Heartbeats& beats);

  /// Cuts `host_id`'s open batch, then publishes an already-serialized
  /// payload on an explicit topic with the standard token + delegate
  /// signature, never encrypted, batched or coalesced (gauge probes ride
  /// the Interest topic in the clear, §5.1).
  void publish_raw(const Signing& signing, const std::string& host_id,
                   std::string topic, Bytes payload);

  /// Publishes `host_id`'s open batch now, if any. Called before the
  /// session's token, delegate key or trace key changes: a batch is
  /// signed with the material it opened under.
  void cut(const std::string& host_id);

  /// Publishes `host_id`'s open batch and pending digest now, if any (at
  /// most one of them holds anything: fold() cuts the batch and trace()
  /// flushes the digest).
  void flush(const std::string& host_id);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attaches a tamper-evident ledger (DESIGN.md §16): every signed trace,
  /// batch and digest publication is appended to its publication topic's
  /// hash chain — pre-encryption body plus the delegate signature — before
  /// the message enters routing, one record per message. Gauge probes
  /// (publish_raw) are not ledgered: they are periodic cleartext
  /// measurements, not availability history. Null detaches. The ledger
  /// must outlive the emitter.
  void set_ledger(persist::TraceLedger* ledger) { ledger_ = ledger; }

 private:
  /// Owned copy of one session's signing material, for publications made
  /// after the call that handed it in (the session may be gone by then).
  struct OwnedSigning {
    explicit OwnedSigning(const Signing& s);
    std::string trace_topic;
    Bytes auth_token;  // the token, serialized once
    crypto::RsaPrivateKey delegate_key;
    crypto::SecretKey trace_key;
    bool secure = false;
  };

  /// One host's accumulating digest.
  struct Pending {
    OwnedSigning signing;
    TraceDigest digest;
    std::size_t entries = 0;  // observations: set bits over all bitmaps
    TimerWheel::WheelId flush_timer = 0;
  };

  /// Ledger metadata for one publication; null skips the ledger (gauge
  /// probes).
  struct LedgerMeta {
    std::string entity_id;
    std::uint8_t trace_type = 0;
    TimePoint issued_at = 0;
  };

  /// One session's traces awaiting the end of the pass, all bound for
  /// `topic`.
  struct Batch {
    OwnedSigning signing;
    std::string topic;
    std::vector<Bytes> traces;  // serialized payloads, in issue order
    /// The lone trace's own ledger metadata; once k > 1, the host's BATCH
    /// record stamped with the newest trace's issue time.
    LedgerMeta meta;
  };

  /// `host_id`'s pending digest, opened over `beats`' roster (with its
  /// flush timer) when there is none.
  Pending& pending_for(const Signing& signing, const std::string& host_id,
                       const Heartbeats& beats);
  /// Publishes `host_id`'s pending digest now, if any.
  void flush_digest(const std::string& host_id);
  /// Posts the pass's flush task unless it is already queued.
  void post_flush();
  void publish_batch(Batch& b);

  void publish_signed(std::string topic, Bytes body, bool encrypt,
                      const crypto::SecretKey& trace_key, Bytes auth_token,
                      const crypto::RsaPrivateKey& delegate_key,
                      const LedgerMeta* meta = nullptr);

  pubsub::Broker& broker_;
  Rng& rng_;
  Options options_;
  TimerWheel* wheel_;
  RosterSource roster_;
  std::uint64_t sequence_ = 0;
  std::map<std::string, Pending> pending_;
  std::map<std::string, Batch> batches_;  // open batches by host id
  bool flush_posted_ = false;
  /// Expires with the emitter; the queued flush task checks it first.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
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
