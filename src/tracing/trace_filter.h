// Network-wide enforcement of trace authorization (paper §4.3/§5.2).
//
// Every broker in a tracing deployment installs this filter. Messages on
// trace-publication topics (/Constrained/Traces/Broker/Publish-Only/...)
// must carry an authorization token that
//   * chains to the TDN-signed advertisement and the CA,
//   * names the same trace topic the message is published on,
//   * grants publish rights and is within its validity window, and
//   * whose delegate key verifies the message signature.
// Anything else is discarded and counted as misbehaviour of the sending
// peer — repeated offences get the peer disconnected by the broker.
//
// Installation — the only path is filling in Broker::Options before the
// broker exists:
//
//   pubsub::Broker::Options opts{.name = "broker-0"};
//   auto handle = install_trace_filter(opts, anchors, net, config);
//   pubsub::Broker broker(net, std::move(opts));
//
// The installed filter verifies every trace publication inline, inside
// the broker's packet handler, with verify_trace_message()
// (token_verify_cache.h), the check every Tracker runs too, through a
// per-broker token cache: the token chain runs once per distinct token
// (the paper's "keep track of previously computed verifications", §4.3),
// and each message then pays the per-message checks and one
// delegate-signature verify. An accepted trace is routed on as the
// received wire bytes. The returned
// TraceFilterHandle is the one place to observe the broker's per-hop
// verification: filter verdict counters, and the token cache and its hit
// rates.
//
// make_trace_filter() builds the same filter without installing it, for
// tests and benches that drive verification without a running overlay.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/stats.h"
#include "src/pubsub/broker.h"
#include "src/tracing/config.h"
#include "src/tracing/token_verify_cache.h"

namespace et::tracing {

/// One consistent read of a trace filter's counters.
struct TraceFilterStats {
  std::uint64_t passthrough = 0;  // non-trace topics (other rules apply)
  std::uint64_t checked = 0;      // trace publications inspected
  std::uint64_t accepted = 0;     // full verification (or cache) passed
  std::uint64_t rejected = 0;     // discarded as unauthorized/invalid
};

/// Batch counters of the retired verification pipeline. Always zero; kept
/// because tracebench still reports two metrics from them.
struct VerifyPipelineStats {
  std::uint64_t drains = 0;
  std::uint64_t batched = 0;
  std::uint64_t keys_deduped = 0;
};

namespace internal {
/// Live counters shared between the filter closure and its handle.
struct FilterCounters {
  RelaxedCounter passthrough;
  RelaxedCounter checked;
  RelaxedCounter accepted;
  RelaxedCounter rejected;

  [[nodiscard]] TraceFilterStats snapshot() const {
    return {passthrough.get(), checked.get(), accepted.get(),
            rejected.get()};
  }
};
}  // namespace internal

/// Handle returned by install_trace_filter: one place to observe a
/// broker's per-hop verification (filter verdict counters + the token
/// cache and its hit rates). Copyable; default-constructed handles read as
/// empty. The cache pointer is nullptr when the config disables caching.
class TraceFilterHandle {
 public:
  TraceFilterHandle() = default;
  TraceFilterHandle(std::shared_ptr<TokenVerifyCache> cache,
                    std::shared_ptr<internal::FilterCounters> counters)
      : cache_(std::move(cache)), counters_(std::move(counters)) {}

  /// The broker's token-verification cache (nullptr when disabled).
  [[nodiscard]] const std::shared_ptr<TokenVerifyCache>& cache() const {
    return cache_;
  }

  /// Cache counters; zeros when caching is disabled. Safe from any thread
  /// (relaxed atomics).
  [[nodiscard]] TokenCacheStats cache_stats() const {
    return cache_ ? cache_->stats() : TokenCacheStats{};
  }

  /// Filter verdict counters; safe from any thread.
  [[nodiscard]] TraceFilterStats stats() const {
    return counters_ ? counters_->snapshot() : TraceFilterStats{};
  }

  /// Always zeros; kept only because tracebench still reads it.
  [[nodiscard]] VerifyPipelineStats pipeline_stats() const { return {}; }

  /// True when this handle observes an installed filter.
  [[nodiscard]] explicit operator bool() const { return counters_ != nullptr; }

 private:
  std::shared_ptr<TokenVerifyCache> cache_;
  std::shared_ptr<internal::FilterCounters> counters_;
};

/// Builds the uncached inline (reference) filter; `backend` supplies the
/// verification clock. Every message pays the full verification chain.
pubsub::MessageFilter make_trace_filter(const TrustAnchors& anchors,
                                        transport::NetworkBackend& backend);

/// Builds the inline filter with a token-verification cache and optional
/// verdict counters. `cache` may be nullptr (equivalent to the uncached
/// filter); it must outlive the filter and, like the broker it serves, is
/// touched only from that broker's node context. `counters`, when given,
/// is incremented per verdict (relaxed atomics, readable anywhere).
pubsub::MessageFilter make_trace_filter(
    const TrustAnchors& anchors, transport::NetworkBackend& backend,
    std::shared_ptr<TokenVerifyCache> cache,
    std::shared_ptr<internal::FilterCounters> counters = nullptr);

/// Fills `options.message_filter` with the cached inline trace filter for
/// a broker about to be constructed on `backend`, its cache sized per
/// `config.verification`. Returns the stats handle.
TraceFilterHandle install_trace_filter(pubsub::Broker::Options& options,
                                       const TrustAnchors& anchors,
                                       transport::NetworkBackend& backend,
                                       const TracingConfig& config = {});

}  // namespace et::tracing
