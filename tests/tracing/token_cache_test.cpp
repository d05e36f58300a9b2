// Per-hop token-verification cache (token_verify_cache.h + the cached
// trace filter): the RSA chain must run once per (token bytes, validity
// window) while every security property of the uncached filter is
// preserved — expiry, forged signatures, wrong topics and eviction must
// all still reject exactly as before.
#include <gtest/gtest.h>

#include "src/crypto/fingerprint.h"
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
  m.auth_token = to_bytes("garbage-not-a-token");
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
  EXPECT_EQ(cache->stats().insertions, 0u);
  EXPECT_EQ(cache->size(), 0u);
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
  const auto fp_a = crypto::fingerprint(a.serialize());
  const auto fp_b = crypto::fingerprint(to_bytes("token-b"));
  const auto fp_c = crypto::fingerprint(to_bytes("token-c"));
  lru.store_ok(fp_a, a, 0);
  lru.store_rejected(fp_b, unauthenticated("bad"), 0);
  // Touch A so B is the least recently used, then insert C.
  EXPECT_EQ(lru.lookup(fp_a, 0).kind, TokenVerifyCache::Lookup::Kind::kOk);
  lru.store_rejected(fp_c, unauthenticated("bad"), 0);
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.lookup(fp_a, 0).kind, TokenVerifyCache::Lookup::Kind::kOk);
  EXPECT_EQ(lru.lookup(fp_b, 0).kind, TokenVerifyCache::Lookup::Kind::kMiss);
  EXPECT_EQ(lru.lookup(fp_c, 0).kind,
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

}  // namespace
}  // namespace et::tracing
