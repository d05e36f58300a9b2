#include "src/tracing/trace_filter.h"

#include <optional>
#include <string>
#include <utility>

#include "src/crypto/fingerprint.h"
#include "src/tracing/authorization_token.h"

namespace et::tracing {

namespace {

// May this rejection be replayed for a byte-identical resend? Signature
// -chain failures (unauthenticated / permission-denied) are deterministic
// over the bytes and the (fixed) trust anchors. Of the time-dependent
// kExpired rejections only a lapsed token window is monotonic — a
// not-yet-valid token or a transiently out-of-window credential must be
// re-verified later, so those are never cached.
bool rejection_is_deterministic(const Status& s, const AuthorizationToken& t,
                                TimePoint now, Duration skew) {
  if (s.code() != Code::kExpired) return true;
  return now - skew >= t.valid_until();
}

/// Is `topic` a trace publication this filter polices? Returns the parsed
/// topic when yes.
std::optional<pubsub::ConstrainedTopic> trace_publication(
    std::string_view topic) {
  auto ct = pubsub::ConstrainedTopic::parse(topic);
  if (!ct || ct->event_type != "Traces" || !ct->constrainer_is_broker() ||
      ct->allowed != pubsub::AllowedActions::kPublishOnly) {
    return std::nullopt;  // not a trace publication; other rules apply
  }
  return ct;
}

}  // namespace

pubsub::MessageFilter make_trace_filter(const TrustAnchors& anchors,
                                        transport::NetworkBackend& backend) {
  return make_trace_filter(anchors, backend, nullptr);
}

pubsub::MessageFilter make_trace_filter(
    const TrustAnchors& anchors, transport::NetworkBackend& backend,
    std::shared_ptr<TokenVerifyCache> cache,
    std::shared_ptr<internal::FilterCounters> counters) {
  auto verify = [anchors, &backend, cache = std::move(cache)](
                    const pubsub::MessageView& m) -> std::optional<Status> {
    const auto ct = trace_publication(m.topic);
    if (!ct) return std::nullopt;

    if (m.auth_token.empty()) {
      return unauthenticated("trace message without authorization token");
    }

    const TimePoint now = backend.now();
    const AuthorizationToken* token = nullptr;
    AuthorizationToken parsed;
    crypto::Fingerprint256 fp;
    if (cache) {
      fp = crypto::fingerprint(m.auth_token);
      const TokenVerifyCache::Lookup cached = cache->lookup(fp, now);
      if (cached.kind == TokenVerifyCache::Lookup::Kind::kRejected) {
        return cached.status;
      }
      if (cached.kind == TokenVerifyCache::Lookup::Kind::kOk) {
        token = cached.token;
      }
    }

    if (token == nullptr) {
      try {
        parsed = AuthorizationToken::deserialize(m.auth_token);
      } catch (const SerializeError& e) {
        // Malformed bytes are never cached: rejecting them is already
        // cheap, and an attacker flooding garbage must not be able to
        // thrash good entries out of the LRU.
        return unauthenticated(std::string("malformed token: ") + e.what());
      }
      if (const Status s =
              parsed.verify(anchors.tdn_key, anchors.ca_key, now);
          !s.is_ok()) {
        if (cache && rejection_is_deterministic(s, parsed, now,
                                                kDefaultSkewAllowance)) {
          cache->store_rejected(fp, s, now);
        }
        return s;
      }
      if (cache && cache->capacity() > 0) {
        token = cache->store_ok(fp, std::move(parsed), now);
      } else {
        token = &parsed;
      }
    }

    // Per-message checks: cheap, and dependent on the message rather than
    // the token bytes alone, so they run on cache hits too.
    if (token->rights() != TokenRights::kPublish) {
      return permission_denied("token does not grant publish rights");
    }
    // The token must authorize THIS topic: the first suffix segment of a
    // trace-publication topic is the trace-topic UUID.
    if (ct->suffixes.empty() ||
        ct->suffixes.front() != token->trace_topic().to_string()) {
      return permission_denied("token is for a different trace topic");
    }
    if (!token->verify_delegate_signature(m.signable_bytes(), m.signature)) {
      return unauthenticated("trace message not signed by the delegate key");
    }
    return Status::ok();
  };

  return [verify = std::move(verify), counters = std::move(counters)](
             pubsub::Broker&, const pubsub::MessageView& m,
             transport::NodeId) -> Status {
    std::optional<Status> verdict = verify(m);
    if (counters) {
      if (!verdict) {
        counters->passthrough.inc();
      } else {
        counters->checked.inc();
        (verdict->is_ok() ? counters->accepted : counters->rejected).inc();
      }
    }
    return verdict ? std::move(*verdict) : Status::ok();
  };
}

TraceFilterHandle install_trace_filter(pubsub::Broker::Options& options,
                                       const TrustAnchors& anchors,
                                       transport::NetworkBackend& backend,
                                       const TracingConfig& config) {
  const TracingConfig::Verification& verification = config.verification;
  std::shared_ptr<TokenVerifyCache> cache;
  if (verification.cache_capacity > 0) {
    cache = std::make_shared<TokenVerifyCache>(verification.cache_capacity,
                                               verification.cache_ttl);
  }
  auto counters = std::make_shared<internal::FilterCounters>();
  options.message_filter = make_trace_filter(anchors, backend, cache, counters);
  return {std::move(cache), std::move(counters)};
}

}  // namespace et::tracing
