// Tracing configuration and deployment-wide trust anchors.
#pragma once

#include <cstdint>

#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/crypto/rsa.h"
#include "src/crypto/secret_key.h"

namespace et::tracing {

/// Public keys every participant trusts: the certificate authority that
/// issues credentials and the TDN key that signs topic advertisements.
/// (A deployment may run several TDNs sharing one signing identity; the
/// multi-TDN tests exercise replication with a shared key.)
struct TrustAnchors {
  crypto::RsaPublicKey ca_key;
  crypto::RsaPublicKey tdn_key;
};

/// How a traced entity authenticates its messages to the hosting broker.
enum class EntitySigningMode : std::uint8_t {
  /// §4.2: every entity-initiated message (including ping responses)
  /// carries an RSA signature.
  kSignEachMessage = 1,
  /// §6.3 optimization: messages are AES-encrypted with the session key
  /// instead; possession of the key authenticates the sender.
  kSymmetricSession = 2,
};

/// Knobs of the tracing scheme. Defaults follow the paper's setup where
/// specified and sensible cluster values elsewhere.
struct TracingConfig {
  /// Base broker->entity ping period.
  Duration ping_interval = 500 * kMillisecond;
  /// Floor the adaptive scheduler may shrink the period to when responses
  /// go missing ("the ping interval is reduced to hasten the failure
  /// detection", §3.3).
  Duration min_ping_interval = 100 * kMillisecond;
  /// Consecutive unanswered pings before FAILURE_SUSPICION.
  int suspicion_misses = 3;
  /// Consecutive unanswered pings before FAILED.
  int failed_misses = 6;
  /// Sliding window of ping records kept per session (paper: 10).
  int ping_history = 10;
  /// Period of GAUGE_INTEREST probes (§3.5).
  Duration gauge_interval = 3 * kSecond;
  /// A tracker's interest registration stays fresh for this many gauge
  /// rounds without a renewed response.
  int interest_ttl_rounds = 3;
  /// Period of NETWORK_METRICS publications.
  Duration metrics_interval = 2 * kSecond;
  /// §5.1: encrypt traces with an entity-provided secret trace key.
  bool secure_traces = false;
  /// §6.3 signing-cost optimization toggle.
  EntitySigningMode signing_mode = EntitySigningMode::kSignEachMessage;
  /// Symmetric algorithm for session/trace keys (paper: AES-192).
  crypto::SymmetricAlg symmetric_alg = crypto::SymmetricAlg::kAes192Cbc;
  /// Delegate key size for authorization tokens (paper: 1024-bit RSA).
  std::size_t delegate_key_bits = 1024;
  /// Token validity window ("typically ... short enough to correspond to
  /// its expected presence within the system", §4.3).
  Duration token_lifetime = 600 * kSecond;
  /// §4.3: "An entity can generate a new token, once a token is closer to
  /// expiration." When true, the entity re-delegates (fresh key pair +
  /// token) at 3/4 of the token lifetime, keeping traces verifiable
  /// indefinitely.
  bool auto_renew_tokens = true;
  /// Trace-topic advertisement lifetime at the TDN.
  Duration topic_lifetime = 3600 * kSecond;

  // --- failure recovery (DESIGN.md §11) ---------------------------------

  /// Broker-side final escalation: total consecutive unanswered pings
  /// after which a FAILED entity is presumed departed — the broker
  /// publishes DISCONNECT and drops the session, forcing an explicit
  /// re-registration (RECOVERING -> READY) instead of a silent revival.
  /// Must exceed failed_misses to fire after the FAILED stage. 0 (the
  /// default) keeps the pre-recovery behaviour: probe forever.
  int disconnect_misses = 0;

  /// Entity-side broker-silence watchdog: when no broker traffic (pings,
  /// registration responses) has arrived for this long, the entity
  /// presumes its hosting broker dead and fails over — re-runs
  /// find_broker, re-registers and re-mints its delegation under `retry`.
  /// 0 (the default) disables failover.
  Duration broker_silence_timeout = 0;

  /// Retry policy installed on the entity's discovery client and used to
  /// pace the failover loop. The default single-attempt policy preserves
  /// the paper's fire-and-wait discovery behaviour; deployments that
  /// enable failover typically install RetryPolicy::standard().
  RetryPolicy retry = RetryPolicy::none();

  /// After a completed failover the entity announces RECOVERING at once
  /// but holds the resumed (READY) report for this long, giving trackers
  /// a gauge round to register interest with the new hosting broker and
  /// observe the RECOVERING -> READY transition. 0 = announce both
  /// back-to-back.
  Duration recovery_announce_delay = 0;

  // --- million-entity scale (DESIGN.md §14) -----------------------------

  /// ALLS_WELL coalescing window: each ping response's plain heartbeats
  /// fold into the host's signed digest as one liveness bitmap, and the
  /// digest flushes on this period (trackers expand it back to per-entity
  /// traces through the host's roster). 0 (the default) publishes every
  /// heartbeat per-entity, unchanged.
  Duration digest_interval = 0;
  /// Flush a pending digest early once it carries this many observations
  /// (set bits).
  std::size_t digest_max_entries = 256;
  /// Coalescing granularity of the broker's session timer wheel: all
  /// session timers (ping/gauge/metrics/digest-flush) due within one tick
  /// share a single armed backend timer, collapsing O(entities) armed
  /// timers into O(ticks). Timers fire never early and at most one tick
  /// late, which the miss-grace windows absorb. 0 (the default) keeps the
  /// 1:1 passthrough.
  Duration timer_wheel_tick = 0;

  /// Per-hop verification knobs: the token-verdict cache every broker's
  /// trace filter verifies through (DESIGN.md §8).
  struct Verification {
    /// Token-verification cache capacity (distinct tokens). The paper
    /// notes brokers may "keep track of previously computed verifications"
    /// (§4.3); 0 disables the cache and every trace pays the full RSA
    /// chain again.
    std::size_t cache_capacity = 1024;
    /// Upper bound on reusing a cached verification verdict without
    /// re-running the full chain. Bounds the window during which an
    /// advertisement or credential that expired *after* the token was
    /// verified could still be honoured; token windows themselves are
    /// re-checked on every hit.
    Duration cache_ttl = 60 * kSecond;
  };
  Verification verification;
};

}  // namespace et::tracing
