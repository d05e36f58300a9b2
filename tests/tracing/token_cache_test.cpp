// Per-hop token-verification cache (token_verify_cache.h + the cached
// trace filter): the RSA chain must run once per (token bytes, validity
// window) while every security property of the uncached filter is
// preserved — expiry, forged signatures, wrong topics and eviction must
// all still reject exactly as before.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/pubsub/message.h"
#include "src/tracing/token_verify_cache.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/trace_message.h"
#include "src/transport/virtual_network.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

constexpr std::size_t kBits = 512;

struct CachedFilterFixture : ::testing::Test {
  CachedFilterFixture() : rng(77), ca("ca", rng, kBits), net(9) {
    owner = crypto::Identity::create("owner-1", ca, rng, 0, 3600 * kSecond,
                                     kBits);
    tdn_keys = crypto::rsa_generate(rng, kBits);
    delegate = crypto::rsa_generate(rng, kBits);
    ad = make_advertisement(Uuid::generate(rng));
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_keys.public_key;
    cache = std::make_shared<TokenVerifyCache>(/*capacity=*/8,
                                               /*ttl=*/60 * kSecond);
    filter = make_trace_filter(anchors, net, cache);
  }

  discovery::TopicAdvertisement make_advertisement(const Uuid& topic) {
    discovery::TopicAdvertisement unsigned_ad(
        topic, "Availability/Traces/owner-1", owner.credential, {}, 0,
        3600 * kSecond, "tdn-0", {});
    return discovery::TopicAdvertisement(
        topic, "Availability/Traces/owner-1", owner.credential, {}, 0,
        3600 * kSecond, "tdn-0",
        tdn_keys.private_key.sign(unsigned_ad.tbs()));
  }

  AuthorizationToken make_token(TimePoint from = 0,
                                TimePoint until = 600 * kSecond) {
    return AuthorizationToken::create(ad, delegate.public_key,
                                      TokenRights::kPublish, from, until,
                                      owner.keys.private_key);
  }

  pubsub::Message trace_message(const AuthorizationToken& t,
                                const discovery::TopicAdvertisement& for_ad) {
    TracePayload p;
    p.type = TraceType::kAllsWell;
    p.entity_id = "owner-1";
    pubsub::Message m;
    m.topic = pubsub::trace_topics::trace_publication(
        for_ad.topic().to_string(), "AllUpdates");
    m.payload = p.serialize();
    m.publisher = "broker-x";
    m.sequence = 1;
    m.timestamp = net.now();
    m.auth_token = t.serialize();
    m.signature = delegate.private_key.sign(m.signable_bytes());
    return m;
  }

  pubsub::Message trace_message(const AuthorizationToken& t) {
    return trace_message(t, ad);
  }

  /// Drives a filter the way a broker would: it sees a view of `m`,
  /// exactly as it would see a decoded wire frame, and returns its
  /// verdict (ok = accept).
  Status run(const pubsub::MessageFilter& f, pubsub::Message m) {
    return f(broker, m.as_view(), 0);
  }
  Status run(pubsub::Message m) { return run(filter, std::move(m)); }

  Rng rng;
  crypto::CertificateAuthority ca;
  transport::VirtualTimeNetwork net;
  crypto::Identity owner;
  crypto::RsaKeyPair tdn_keys;
  crypto::RsaKeyPair delegate;
  discovery::TopicAdvertisement ad;
  TrustAnchors anchors;
  std::shared_ptr<TokenVerifyCache> cache;
  pubsub::MessageFilter filter;
  pubsub::Broker broker{net, {.name = "fixture-broker"}};
};

TEST_F(CachedFilterFixture, SteadyStateHitsAfterOneMiss) {
  const AuthorizationToken t = make_token();
  const pubsub::Message m = trace_message(t);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(run(m).is_ok()) << "round " << i;
  }
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 99u);
  EXPECT_EQ(cache->stats().insertions, 1u);
  EXPECT_GT(cache->stats().hit_rate(), 0.9);
}

TEST_F(CachedFilterFixture, CachedOkIsReRejectedAfterExpiry) {
  const AuthorizationToken t = make_token(0, 2 * kSecond);
  const pubsub::Message m = trace_message(t);
  EXPECT_TRUE(run(m).is_ok());  // miss: full chain
  EXPECT_TRUE(run(m).is_ok());  // hit
  ASSERT_EQ(cache->stats().hits, 1u);

  // Advance the virtual clock past the validity window (plus skew): the
  // cached OK must die with the token.
  net.run_for(3 * kSecond);
  EXPECT_EQ(run(m).code(), Code::kExpired);
  EXPECT_GE(cache->stats().expired, 1u);
  // The lapsed window is monotonic, so the rejection is now cacheable:
  // byte-identical resends are turned away without any RSA work.
  EXPECT_EQ(run(m).code(), Code::kExpired);
  EXPECT_GE(cache->stats().negative_hits, 1u);
}

TEST_F(CachedFilterFixture, BadSignatureNeverServedOkOnResend) {
  Rng mallory_rng(5);
  const crypto::Identity mallory = crypto::Identity::create(
      "mallory", ca, mallory_rng, 0, 3600 * kSecond, kBits);
  // Mallory signs a token over the owner's advertisement: the chain fails
  // at the owner-signature step, deterministically for these bytes.
  const AuthorizationToken forged = AuthorizationToken::create(
      ad, delegate.public_key, TokenRights::kPublish, 0, 600 * kSecond,
      mallory.keys.private_key);
  const pubsub::Message m = trace_message(forged);
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  // Byte-identical resend: served the cached rejection, never OK.
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_GE(cache->stats().negative_hits, 1u);
}

TEST_F(CachedFilterFixture, TamperedTokenCannotAliasCachedVerdict) {
  const AuthorizationToken good = make_token();
  const pubsub::Message m = trace_message(good);
  ASSERT_TRUE(run(m).is_ok());

  // Flip one bit of the attached token: the fingerprint changes, so the
  // tampered bytes cannot ride the good token's cached OK.
  pubsub::Message tampered = m;
  tampered.auth_token.back() ^= 0x01;
  EXPECT_FALSE(run(tampered).is_ok());
  // And the good token still verifies from the cache.
  EXPECT_TRUE(run(m).is_ok());
  EXPECT_GE(cache->stats().hits, 1u);
}

TEST_F(CachedFilterFixture, MalformedTokensAreNotCached) {
  const AuthorizationToken t = make_token();
  pubsub::Message m = trace_message(t);
  const Bytes token = m.auth_token;
  m.auth_token = to_bytes("garbage-not-a-token");
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  // Every truncation of a genuine token, and one trailing byte.
  for (std::size_t len = 0; len < token.size(); ++len) {
    m.auth_token.assign(token.begin(), token.begin() + len);
    EXPECT_EQ(run(m).code(), Code::kUnauthenticated) << "length " << len;
  }
  m.auth_token = token;
  m.auth_token.push_back(0x00);
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  EXPECT_EQ(cache->stats().insertions, 0u);
  EXPECT_EQ(cache->size(), 0u);
}

TEST_F(CachedFilterFixture, EveryByteFlipOfACachedTokenMissesAndIsRejected) {
  const pubsub::Message good = trace_message(make_token());
  ASSERT_TRUE(run(good).is_ok());  // cached OK
  // Every byte, the owner signature at the tail included: the flipped
  // bytes never reach the cached verdict.
  for (std::size_t i = 0; i < good.auth_token.size(); ++i) {
    pubsub::Message m = good;
    m.auth_token[i] ^= 0xFF;
    const TokenCacheStats before = cache->stats();
    EXPECT_FALSE(run(m).is_ok()) << "byte " << i;
    EXPECT_EQ(cache->stats().hits, before.hits) << "byte " << i;
    EXPECT_EQ(cache->stats().misses, before.misses + 1) << "byte " << i;
  }
}

TEST_F(CachedFilterFixture, NotYetValidIsNotNegativelyCached) {
  const AuthorizationToken t =
      make_token(5 * kSecond, 600 * kSecond);
  const pubsub::Message m = trace_message(t);
  EXPECT_EQ(run(m).code(), Code::kExpired);  // "not yet valid"
  EXPECT_EQ(cache->stats().insertions, 0u);
  // Once the window opens the same bytes must verify.
  net.run_for(6 * kSecond);
  EXPECT_TRUE(run(m).is_ok());
}

TEST_F(CachedFilterFixture, CachedTokenStillRejectsWrongTopic) {
  const AuthorizationToken t = make_token();
  ASSERT_TRUE(run(trace_message(t)).is_ok());  // cached OK

  // Same (cached) token attached to a publication on a different trace
  // topic: the per-message topic check must still reject.
  const discovery::TopicAdvertisement other_ad =
      make_advertisement(Uuid::generate(rng));
  pubsub::Message wrong = trace_message(t, other_ad);
  EXPECT_EQ(run(wrong).code(), Code::kPermissionDenied);
  EXPECT_EQ(cache->stats().hits, 1u);  // rejected on a hit
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST_F(CachedFilterFixture, CachedTokenStillChecksDelegateSignature) {
  const AuthorizationToken t = make_token();
  ASSERT_TRUE(run(trace_message(t)).is_ok());  // cached OK

  pubsub::Message m = trace_message(t);
  m.payload.push_back(0xFF);  // bit-flip after signing
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
}

TEST_F(CachedFilterFixture, EvictionAtCapacityKeepsFilterCorrect) {
  auto small = std::make_shared<TokenVerifyCache>(/*capacity=*/2,
                                                  /*ttl=*/60 * kSecond);
  auto f = make_trace_filter(anchors, net, small);

  // Three distinct tokens (distinct advertisements -> distinct bytes).
  std::vector<discovery::TopicAdvertisement> ads;
  std::vector<AuthorizationToken> tokens;
  for (int i = 0; i < 3; ++i) {
    ads.push_back(make_advertisement(Uuid::generate(rng)));
    tokens.push_back(AuthorizationToken::create(
        ads.back(), delegate.public_key, TokenRights::kPublish, 0,
        600 * kSecond, owner.keys.private_key));
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(run(f, trace_message(tokens[i], ads[i])).is_ok())
          << "round " << round << " token " << i;
    }
  }
  EXPECT_GE(small->stats().evictions, 1u);
  EXPECT_LE(small->size(), 2u);
}

TEST_F(CachedFilterFixture, ZeroCapacityDisablesStorageNotCorrectness) {
  auto disabled = std::make_shared<TokenVerifyCache>(/*capacity=*/0,
                                                     /*ttl=*/60 * kSecond);
  auto f = make_trace_filter(anchors, net, disabled);
  const AuthorizationToken t = make_token();
  const pubsub::Message m = trace_message(t);
  EXPECT_TRUE(run(f, m).is_ok());
  EXPECT_TRUE(run(f, m).is_ok());
  EXPECT_EQ(disabled->stats().hits, 0u);
  EXPECT_EQ(disabled->size(), 0u);
  pubsub::Message bad = m;
  bad.payload.push_back(0x01);
  EXPECT_FALSE(run(f, bad).is_ok());
}

TEST_F(CachedFilterFixture, TtlForcesFullReverification) {
  auto short_ttl = std::make_shared<TokenVerifyCache>(/*capacity=*/8,
                                                      /*ttl=*/1 * kSecond);
  auto f = make_trace_filter(anchors, net, short_ttl);
  const AuthorizationToken t = make_token();
  const pubsub::Message m = trace_message(t);
  EXPECT_TRUE(run(f, m).is_ok());  // miss
  EXPECT_TRUE(run(f, m).is_ok());  // hit
  net.run_for(2 * kSecond);      // past the TTL, token still valid
  EXPECT_TRUE(run(f, m).is_ok());  // full chain re-ran
  EXPECT_GE(short_ttl->stats().expired, 1u);
  EXPECT_EQ(short_ttl->stats().misses, 1u);
  EXPECT_EQ(short_ttl->stats().insertions, 2u);
}

// --- LRU mechanics directly on the cache -----------------------------------

TEST_F(CachedFilterFixture, LruPrefersRecentlyUsedEntries) {
  TokenVerifyCache lru(/*capacity=*/2, /*ttl=*/60 * kSecond);
  const AuthorizationToken a = make_token();
  const Bytes bytes_a = a.serialize();
  const Bytes bytes_b = to_bytes("token-b");
  const Bytes bytes_c = to_bytes("token-c");
  // A stored token carries its delegate key's Montgomery constants.
  ASSERT_TRUE(lru.store_ok(bytes_a, a, 0)->delegate_key().precomputed());
  EXPECT_FALSE(a.delegate_key().precomputed());
  lru.store_rejected(bytes_b, unauthenticated("bad"), 0);
  // Touch A so B is the least recently used, then insert C.
  EXPECT_EQ(lru.lookup(bytes_a, 0).kind, TokenVerifyCache::Lookup::Kind::kOk);
  lru.store_rejected(bytes_c, unauthenticated("bad"), 0);
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.lookup(bytes_a, 0).kind, TokenVerifyCache::Lookup::Kind::kOk);
  EXPECT_EQ(lru.lookup(bytes_b, 0).kind, TokenVerifyCache::Lookup::Kind::kMiss);
  EXPECT_EQ(lru.lookup(bytes_c, 0).kind,
            TokenVerifyCache::Lookup::Kind::kRejected);
}

// --- end-to-end: routed traces hit downstream broker caches ----------------

TEST(TokenCacheE2eTest, DownstreamBrokerCacheReachesSteadyState) {
  testing::TracingHarness h(/*broker_count=*/2);
  auto entity = h.make_entity("cached-svc", 0);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("watcher", 1);
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "cached-svc", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(2 * kSecond);
  EXPECT_GT(received, 5);

  // Broker 1 receives every trace from its neighbour and must verify the
  // (byte-identical) token each time: one full chain, the rest cache hits.
  ASSERT_NE(h.token_caches.at(1), nullptr);
  const TokenCacheStats s = h.token_caches[1]->stats();
  EXPECT_GE(s.hits, 5u);
  EXPECT_LE(s.misses, 2u);  // first trace (+ a renewal at most)
  EXPECT_GT(s.hit_rate(), 0.8);
}

// --- the tracker verifies through its own cache ----------------------------

/// One entity whose identity the test keeps, tracked by one tracker on
/// the same broker. `handled` collects the signature of every message
/// the tracker hands its handler.
struct TrackerCacheFixture {
  explicit TrackerCacheFixture(
      TracingConfig config = testing::TracingHarness::fast_config())
      : h(1, config), owner(h.make_identity("svc")) {
    entity = h.make_entity(owner);
    EXPECT_TRUE(h.start_tracing(*entity).is_ok());
    tracker = h.make_tracker("watcher");
    EXPECT_TRUE(h.track(*tracker, "svc", kCatAllUpdates,
                        [this](const TracePayload&, const pubsub::Message& m) {
                          handled.push_back(m.signature);
                          last = m;
                        })
                    .is_ok());
  }

  [[nodiscard]] std::size_t handled_count(const pubsub::Message& m) const {
    return static_cast<std::size_t>(
        std::count(handled.begin(), handled.end(), m.signature));
  }

  testing::TracingHarness h;
  crypto::Identity owner;
  std::unique_ptr<TracedEntity> entity;
  std::unique_ptr<Tracker> tracker;
  std::vector<Bytes> handled;
  pubsub::Message last;
};

TEST(TrackerTokenCacheTest, FirstTraceMissesLaterTracesHit) {
  TrackerCacheFixture f;
  f.h.net.run_for(1 * kSecond);
  ASSERT_GT(f.handled.size(), 5u);
  const TokenCacheStats s = f.tracker->token_cache_stats();
  EXPECT_EQ(s.misses, 1u);  // the token chain ran once
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(s.negative_hits, 0u);
  // Every later message (traces and gauge probes alike) hit.
  const std::set<Bytes> messages(f.handled.begin(), f.handled.end());
  EXPECT_GE(s.hits + s.misses, messages.size());
  EXPECT_EQ(f.tracker->stats().traces_rejected, 0u);
}

TEST(TrackerTokenCacheTest, CachedTokenOnAnotherTopicIsRejectedOnAHit) {
  TrackerCacheFixture f;
  auto other = f.h.make_entity("svc-other");
  ASSERT_TRUE(f.h.start_tracing(*other).is_ok());
  ASSERT_TRUE(f.h.track(*f.tracker, "svc-other", kCatAllUpdates,
                        [&](const TracePayload&, const pubsub::Message& m) {
                          f.handled.push_back(m.signature);
                        })
                  .is_ok());
  f.h.net.run_for(300 * kMillisecond);
  ASSERT_FALSE(f.last.auth_token.empty());

  // The first entity's cached token, presented on the other entity's
  // trace topic.
  pubsub::Message moved = f.last;
  moved.topic = pubsub::trace_topics::trace_publication(
      other->trace_topic().to_string(), "AllUpdates");
  moved.signature.back() ^= 0x01;  // tells it apart from the original
  const TokenCacheStats before = f.tracker->token_cache_stats();
  const std::uint64_t rejected = f.tracker->stats().traces_rejected;
  f.h.deliver_direct(*f.tracker, moved);
  const TokenCacheStats after = f.tracker->token_cache_stats();
  EXPECT_EQ(f.tracker->stats().traces_rejected, rejected + 1);
  EXPECT_EQ(f.handled_count(moved), 0u);
  // Served by a positive hit: no lookup missed, expired or hit a
  // rejection.
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.expired, before.expired);
  EXPECT_EQ(after.negative_hits, before.negative_hits);
}

TEST(TrackerTokenCacheTest, LapsedWindowIsRejectedOnAHit) {
  TracingConfig c = testing::TracingHarness::fast_config();
  c.token_lifetime = 700 * kMillisecond;
  c.auto_renew_tokens = false;  // let the cached token lapse
  TrackerCacheFixture f(c);
  f.h.net.run_for(300 * kMillisecond);
  ASSERT_GT(f.handled.size(), 0u);
  ASSERT_GT(f.tracker->token_cache_stats().hits, 0u);

  // Past the window and its skew allowance, the cached entry is dropped
  // on its next lookup and the token is turned away from then on.
  f.h.net.run_for(1500 * kMillisecond);
  const std::size_t handled = f.handled.size();
  const std::uint64_t rejected = f.tracker->stats().traces_rejected;
  f.h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(f.handled.size(), handled);
  EXPECT_GT(f.tracker->stats().traces_rejected, rejected);
  const TokenCacheStats s = f.tracker->token_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GE(s.expired, 1u);
  EXPECT_GE(s.negative_hits, 1u);  // the lapse is monotonic: cached
}

TEST(TrackerTokenCacheTest, MalformedTokensAreNeverStored) {
  TrackerCacheFixture f;
  f.h.net.run_for(300 * kMillisecond);
  ASSERT_FALSE(f.last.auth_token.empty());
  const TokenCacheStats before = f.tracker->token_cache_stats();
  const std::uint64_t rejected = f.tracker->stats().traces_rejected;

  const pubsub::Message captured = f.last;
  const std::size_t handled = f.handled_count(captured);
  const Bytes& token = captured.auth_token;
  std::vector<Bytes> malformed = {to_bytes("garbage-not-a-token"),
                                  Bytes(token.begin(), token.end() - 1),
                                  token};
  malformed.back().push_back(0x00);
  for (const Bytes& bad : malformed) {
    pubsub::Message m = captured;
    m.auth_token = bad;
    f.h.deliver_direct(*f.tracker, m);
  }
  EXPECT_EQ(f.tracker->stats().traces_rejected, rejected + malformed.size());
  EXPECT_EQ(f.handled_count(captured), handled);
  EXPECT_EQ(f.tracker->token_cache_stats().insertions, before.insertions);
  EXPECT_EQ(f.tracker->token_cache_stats().negative_hits, 0u);
}

}  // namespace
}  // namespace et::tracing
