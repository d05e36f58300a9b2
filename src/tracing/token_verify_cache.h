// Token-verification cache and the trace authorization check built on it
// (paper §4.3/§5.2).
//
// Every broker routing a trace, and every tracker receiving one, verifies
// the authorization token attached to it. The expensive part of that
// check — the TDN-signed advertisement, the owner credential's CA chain
// and the owner's token signature, three RSA verifications plus a
// deserialization — depends only on the token *bytes*, which are
// identical for every trace a hosting broker emits during one validity
// window. The paper notes verifiers may "keep track of previously computed
// verifications"; this cache is that bookkeeping, the same amortization
// trick as TLS session resumption and SPKI chain caches.
// verify_trace_message() is the one check both verifiers run through it:
// every broker's inline filter (trace_filter.h) and every Tracker, each
// with its own cache.
//
// Design rules (see DESIGN.md "Token-verification cache"):
//   * Keys are the exact token bytes. Each entry keeps its bytes, and a
//     lookup compares them in full, so a cached verdict can only ever be
//     replayed for byte-identical input — a token differing in any byte
//     (signature included) never hits. The bucket hash only places
//     entries; a collision costs one extra comparison, never a verdict.
//   * A cached OK stores the parsed token plus its validity window; every
//     lookup re-evaluates the window against the caller's clock, so a
//     cached OK is dead the instant the token expires. Entries also carry
//     a TTL so a revoked-upstream advertisement or credential cannot be
//     honoured for longer than `ttl` after its last full verification. A
//     stored token keeps its delegate key's Montgomery constants, so the
//     per-message delegate verify on a hit does no BigInt division.
//   * Negative verdicts are cached only for *deterministic* rejections
//     (signature-chain failures, definitively lapsed windows) — never for
//     malformed input, which is rejected cheaply upstream and must not be
//     able to thrash the LRU, and never for not-yet-valid tokens, which
//     become good later.
//   * Bounded LRU: at capacity the least-recently-used entry is evicted.
//     Eviction is purely a performance event — a re-presented evicted
//     token simply runs the full chain again.
//
// Threading: a cache instance is owned by one verifier (a broker's filter
// or a tracker) and touched only from that verifier's node context; it is
// not internally synchronized. stats() may be read from any thread.
#pragma once

#include <cstdint>
#include <list>
#include <string_view>
#include <unordered_map>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/pubsub/message.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/config.h"

namespace et::tracing {

/// Counter snapshot exported alongside BrokerStats for benches and tests.
/// Returned by value from TokenVerifyCache::stats(), which may be called
/// from any thread while the owning verifier keeps verifying (the counters
/// are relaxed atomics, same discipline as internal::FilterCounters).
struct TokenCacheStats {
  std::uint64_t hits = 0;           // cached OK served
  std::uint64_t negative_hits = 0;  // cached rejection served
  std::uint64_t misses = 0;         // no entry; full verification ran
  std::uint64_t expired = 0;        // entry found but stale or lapsed
  std::uint64_t insertions = 0;     // verdicts stored
  std::uint64_t evictions = 0;      // LRU capacity evictions

  /// Fraction of lookups answered from the cache, in [0, 1].
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + negative_hits + misses + expired;
    return total == 0
               ? 0.0
               : static_cast<double>(hits + negative_hits) /
                     static_cast<double>(total);
  }
};

class TokenVerifyCache {
 public:
  /// `capacity` == 0 disables storage (every lookup misses). `ttl` bounds
  /// how long any verdict may be reused after the full chain last ran.
  TokenVerifyCache(std::size_t capacity, Duration ttl)
      : capacity_(capacity), ttl_(ttl) {}

  TokenVerifyCache(const TokenVerifyCache&) = delete;
  TokenVerifyCache& operator=(const TokenVerifyCache&) = delete;

  struct Lookup {
    enum class Kind {
      kMiss,      // no usable entry; run the full chain
      kOk,        // chain verified and window still open: `token` is set
      kRejected,  // deterministic rejection: `status` is the cached verdict
    };
    Kind kind = Kind::kMiss;
    /// Parsed token of a positive entry. Owned by the cache; valid until
    /// the next lookup/store/evict call.
    const AuthorizationToken* token = nullptr;
    Status status = Status::ok();
  };

  /// Consults the cache for the serialized token `token_bytes`. `now` is
  /// the verifier's clock; `skew` is the NTP allowance applied to the
  /// token's validity window, matching AuthorizationToken::verify. Entries
  /// whose TTL or window has lapsed are dropped and reported as misses
  /// (counted in `expired`).
  Lookup lookup(BytesView token_bytes, TimePoint now,
                Duration skew = kDefaultSkewAllowance);

  /// Stores `token`, parsed from `token_bytes`, whose chain has verified,
  /// and builds its delegate key's Montgomery constants. Returns a pointer
  /// to the stored copy (valid until the next mutating call) so the caller
  /// can continue with per-message checks without re-parsing; nullptr
  /// when the capacity is 0.
  const AuthorizationToken* store_ok(BytesView token_bytes,
                                     AuthorizationToken token, TimePoint now);

  /// Stores a deterministic rejection for these exact bytes. Callers must
  /// only pass verdicts that can never change for a byte-identical resend
  /// (signature-chain failures, definitively lapsed validity windows).
  void store_rejected(BytesView token_bytes, Status verdict, TimePoint now);

  /// Snapshot of the counters. Safe to call from any thread (counters are
  /// relaxed atomics); the structural accessors below are still
  /// single-context like the rest of the cache.
  [[nodiscard]] TokenCacheStats stats() const {
    TokenCacheStats s;
    s.hits = counters_.hits.get();
    s.negative_hits = counters_.negative_hits.get();
    s.misses = counters_.misses.get();
    s.expired = counters_.expired.get();
    s.insertions = counters_.insertions.get();
    s.evictions = counters_.evictions.get();
    return s;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    Bytes token_bytes;  // the key; the index views these bytes
    bool ok = false;
    AuthorizationToken token;  // parsed form, positive entries only
    Status verdict = Status::ok();
    TimePoint stale_at = 0;  // full verification required after this
  };

  /// Live counters; relaxed because each is independent and readers only
  /// ever want monotonic totals.
  struct Counters {
    RelaxedCounter hits;
    RelaxedCounter negative_hits;
    RelaxedCounter misses;
    RelaxedCounter expired;
    RelaxedCounter insertions;
    RelaxedCounter evictions;
  };

  using Lru = std::list<Entry>;
  /// Keys view the bytes of their own LRU node, which std::list never
  /// moves; an entry's key dies with it.
  using Index = std::unordered_map<std::string_view, Lru::iterator>;

  static std::string_view key_of(BytesView b) {
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  /// Puts `e` at the LRU front, replacing any entry with the same bytes,
  /// then evicts down to capacity. Returns the stored entry.
  Entry& insert(Entry e);
  void erase(Index::iterator it);

  std::size_t capacity_;
  Duration ttl_;
  Lru entries_;  // front = most recently used
  Index index_;
  Counters counters_;
};

/// The authorization check every broker's trace filter and every tracker
/// run on one trace message `m` (§4.3), in this order:
///   1. a token is attached, parses, and its chain verifies (through
///      `cache` when given, so once per distinct token while the entry
///      lives; with `cache` null on every call);
///   2. the token grants publish rights;
///   3. the token names `trace_topic`, the trace topic `m` was published
///      on;
///   4. the token's delegate key signed `m`.
/// Steps 2-4 run on every call, hit or miss. `now` is the verifier's
/// clock. Returns the first failure.
Status verify_trace_message(TokenVerifyCache* cache,
                            const TrustAnchors& anchors, TimePoint now,
                            const pubsub::MessageView& m,
                            std::string_view trace_topic);

}  // namespace et::tracing
