#include "src/tracing/token_verify_cache.h"

#include <string>
#include <utility>

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

}  // namespace

TokenVerifyCache::Lookup TokenVerifyCache::lookup(BytesView token_bytes,
                                                  TimePoint now,
                                                  Duration skew) {
  Lookup out;
  const auto it = index_.find(key_of(token_bytes));
  if (it == index_.end()) {
    counters_.misses.inc();
    return out;
  }
  Entry& e = *it->second;
  // TTL bound: after `stale_at` the verdict must be recomputed from
  // scratch (bounds how long an upstream revocation can be missed).
  if (now >= e.stale_at) {
    counters_.expired.inc();
    erase(it);
    return out;
  }
  if (e.ok) {
    // The token's own validity window is re-evaluated on every hit with
    // the same skew rule as AuthorizationToken::verify. A lapsed window
    // drops the entry: the caller's full re-verification produces the
    // authoritative "expired" rejection.
    if (now + skew < e.token.valid_from() ||
        now - skew >= e.token.valid_until()) {
      counters_.expired.inc();
      erase(it);
      return out;
    }
    counters_.hits.inc();
    entries_.splice(entries_.begin(), entries_, it->second);  // touch LRU
    out.kind = Lookup::Kind::kOk;
    out.token = &entries_.front().token;
    return out;
  }
  counters_.negative_hits.inc();
  entries_.splice(entries_.begin(), entries_, it->second);
  out.kind = Lookup::Kind::kRejected;
  out.status = entries_.front().verdict;
  return out;
}

const AuthorizationToken* TokenVerifyCache::store_ok(BytesView token_bytes,
                                                     AuthorizationToken token,
                                                     TimePoint now) {
  if (capacity_ == 0) return nullptr;
  token.precompute_delegate_key();
  Entry& stored = insert(Entry{Bytes(token_bytes.begin(), token_bytes.end()),
                               /*ok=*/true, std::move(token), Status::ok(),
                               now + ttl_});
  return &stored.token;
}

void TokenVerifyCache::store_rejected(BytesView token_bytes, Status verdict,
                                      TimePoint now) {
  if (capacity_ == 0) return;
  insert(Entry{Bytes(token_bytes.begin(), token_bytes.end()), /*ok=*/false,
               AuthorizationToken{}, std::move(verdict), now + ttl_});
}

TokenVerifyCache::Entry& TokenVerifyCache::insert(Entry e) {
  if (const auto it = index_.find(key_of(e.token_bytes));
      it != index_.end()) {
    erase(it);
  }
  entries_.push_front(std::move(e));
  index_.emplace(key_of(entries_.front().token_bytes), entries_.begin());
  counters_.insertions.inc();
  while (entries_.size() > capacity_) {
    erase(index_.find(key_of(entries_.back().token_bytes)));
    counters_.evictions.inc();
  }
  return entries_.front();
}

void TokenVerifyCache::erase(Index::iterator it) {
  // The key views the node's bytes: drop the index entry first.
  const Lru::iterator node = it->second;
  index_.erase(it);
  entries_.erase(node);
}

Status verify_trace_message(TokenVerifyCache* cache,
                            const TrustAnchors& anchors, TimePoint now,
                            const pubsub::MessageView& m,
                            std::string_view trace_topic) {
  if (m.auth_token.empty()) {
    return unauthenticated("trace message without authorization token");
  }

  const AuthorizationToken* token = nullptr;
  AuthorizationToken parsed;
  if (cache != nullptr) {
    const TokenVerifyCache::Lookup cached = cache->lookup(m.auth_token, now);
    if (cached.kind == TokenVerifyCache::Lookup::Kind::kRejected) {
      return cached.status;
    }
    token = cached.token;  // set on kOk only
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
    if (const Status s = parsed.verify(anchors.tdn_key, anchors.ca_key, now);
        !s.is_ok()) {
      if (cache != nullptr &&
          rejection_is_deterministic(s, parsed, now, kDefaultSkewAllowance)) {
        cache->store_rejected(m.auth_token, s, now);
      }
      return s;
    }
    if (cache != nullptr && cache->capacity() > 0) {
      token = cache->store_ok(m.auth_token, std::move(parsed), now);
    } else {
      token = &parsed;
    }
  }

  // Per-message checks: cheap, and dependent on the message rather than
  // the token bytes alone, so they run on cache hits too.
  if (token->rights() != TokenRights::kPublish) {
    return permission_denied("token does not grant publish rights");
  }
  if (trace_topic != token->trace_topic().to_string()) {
    return permission_denied("token is for a different trace topic");
  }
  if (!token->verify_delegate_signature(m.signable_bytes(), m.signature)) {
    return unauthenticated("trace message not signed by the delegate key");
  }
  return Status::ok();
}

}  // namespace et::tracing
