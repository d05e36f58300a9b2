// The installed trace filter on a live overlay (trace_filter.h): every
// broker verifies each trace publication inline, through its token cache,
// inside its packet handler. Forged traces are discarded and struck
// against the sending peer until it is disconnected; accepted ones keep
// their order and are forwarded as the original wire bytes. Virtual-time
// runs stay deterministic; the real-time burst is the suite's TSan target.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "src/pubsub/message.h"
#include "src/pubsub/topology.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/trace_message.h"
#include "src/transport/realtime_network.h"
#include "src/transport/virtual_network.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

constexpr std::size_t kBits = 512;

/// Advertisement for `topic` owned by `owner`, signed with the TDN key.
/// `from` anchors the validity window — pass the backend's now() on the
/// real-time network, whose clock does not start at zero.
discovery::TopicAdvertisement make_ad(const crypto::Identity& owner,
                                      const crypto::RsaKeyPair& tdn_keys,
                                      const Uuid& topic, TimePoint from = 0) {
  discovery::TopicAdvertisement unsigned_ad(
      topic, "Availability/Traces/" + owner.credential.subject(),
      owner.credential, {}, from, from + 3600 * kSecond, "tdn-0", {});
  return discovery::TopicAdvertisement(
      topic, "Availability/Traces/" + owner.credential.subject(),
      owner.credential, {}, from, from + 3600 * kSecond, "tdn-0",
      tdn_keys.private_key.sign(unsigned_ad.tbs()));
}

/// AllUpdates trace publication on `ad`'s topic, signed with `delegate`.
pubsub::Message make_trace(const discovery::TopicAdvertisement& ad,
                           const AuthorizationToken& t,
                           const crypto::RsaKeyPair& delegate,
                           std::uint64_t seq, TimePoint now) {
  TracePayload p;
  p.type = TraceType::kAllsWell;
  p.entity_id = "owner-1";
  pubsub::Message m;
  m.topic = pubsub::trace_topics::trace_publication(ad.topic().to_string(),
                                                    "AllUpdates");
  m.payload = p.serialize();
  m.publisher = "upstream-broker";
  m.sequence = seq;
  m.timestamp = now;
  m.auth_token = t.serialize();
  m.signature = delegate.private_key.sign(m.signable_bytes());
  return m;
}

struct OverlayFilterFixture : ::testing::Test {
  OverlayFilterFixture() : rng(91), ca("ca", rng, kBits), net(17) {
    owner = crypto::Identity::create("owner-1", ca, rng, 0, 3600 * kSecond,
                                     kBits);
    tdn_keys = crypto::rsa_generate(rng, kBits);
    ad = make_ad(owner, tdn_keys, Uuid::generate(rng));
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_keys.public_key;
  }

  AuthorizationToken make_token(const crypto::RsaKeyPair& delegate,
                                const crypto::RsaPrivateKey& signer) {
    return AuthorizationToken::create(ad, delegate.public_key,
                                      TokenRights::kPublish, 0, 600 * kSecond,
                                      signer);
  }

  /// Token whose chain deterministically fails: signed by an identity
  /// other than the advertisement's owner.
  AuthorizationToken make_forged_token(const crypto::RsaKeyPair& delegate) {
    Rng mallory_rng(5);
    const crypto::Identity mallory = crypto::Identity::create(
        "mallory", ca, mallory_rng, 0, 3600 * kSecond, kBits);
    return make_token(delegate, mallory.keys.private_key);
  }

  [[nodiscard]] std::string topic() const {
    return pubsub::trace_topics::trace_publication(ad.topic().to_string(),
                                                   "AllUpdates");
  }

  Rng rng;
  crypto::CertificateAuthority ca;
  transport::VirtualTimeNetwork net;
  crypto::Identity owner;
  crypto::RsaKeyPair tdn_keys;
  discovery::TopicAdvertisement ad;
  TrustAnchors anchors;
};

// --- rejection + misbehaviour accounting -----------------------------------

TEST_F(OverlayFilterFixture, ForgedTraceStrikesThenNegativeHitBlacklistsPeer) {
  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "b0"});
  pubsub::Broker::Options o{.name = "b1", .misbehaviour_threshold = 2};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, transport::LinkParams::ideal_profile());

  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic(), [&](const pubsub::Message& m) {
    delivered.push_back(m.sequence);
  });
  net.run_for(10 * kMillisecond);  // interest propagation to b0

  const crypto::RsaKeyPair good_key = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken good = make_token(good_key, owner.keys.private_key);
  const AuthorizationToken forged = make_forged_token(bad_key);

  b0.publish_from_broker(make_trace(ad, good, good_key, 1, net.now()));
  b0.publish_from_broker(make_trace(ad, forged, bad_key, 2, net.now()));
  b0.publish_from_broker(make_trace(ad, good, good_key, 3, net.now()));
  net.run_for(10 * kMillisecond);

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 3}));
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, 3u);
  EXPECT_EQ(fs.accepted, 2u);
  EXPECT_EQ(fs.rejected, 1u);
  EXPECT_EQ(b1.stats().discarded, 1u);
  // One strike so far: below the threshold of 2, the peer stays connected.
  EXPECT_FALSE(b1.is_blacklisted(b0.node()));
  EXPECT_EQ(handle.cache_stats().negative_hits, 0u);

  // The second forgery is served from the negative cache, crosses the
  // threshold and the upstream peer is disconnected.
  b0.publish_from_broker(make_trace(ad, forged, bad_key, 4, net.now()));
  net.run_for(10 * kMillisecond);
  EXPECT_EQ(handle.cache_stats().negative_hits, 1u);
  EXPECT_TRUE(b1.is_blacklisted(b0.node()));
  EXPECT_EQ(b1.stats().disconnects, 1u);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 3}));
}

// --- ordering ---------------------------------------------------------------

TEST_F(OverlayFilterFixture, ForgedTracesAmongKeysNeverReorderAcceptedOnes) {
  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "b0"});
  pubsub::Broker::Options o{.name = "b1"};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, transport::LinkParams::ideal_profile());

  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic(), [&](const pubsub::Message& m) {
    delivered.push_back(m.sequence);
  });
  net.run_for(10 * kMillisecond);

  // Two legitimate delegate keys and one forgery, interleaved on ONE topic.
  const crypto::RsaKeyPair key_a = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair key_b = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken tok_a = make_token(key_a, owner.keys.private_key);
  const AuthorizationToken tok_b = make_token(key_b, owner.keys.private_key);
  const AuthorizationToken forged = make_forged_token(bad_key);

  std::vector<std::uint64_t> expected;
  std::uint64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    b0.publish_from_broker(make_trace(ad, tok_a, key_a, ++seq, net.now()));
    expected.push_back(seq);
    b0.publish_from_broker(make_trace(ad, tok_b, key_b, ++seq, net.now()));
    expected.push_back(seq);
    b0.publish_from_broker(make_trace(ad, forged, bad_key, ++seq, net.now()));
  }
  net.run_for(10 * kMillisecond);

  // Every accepted trace arrives, in exactly its publication order.
  EXPECT_EQ(delivered, expected);
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, 9u);
  EXPECT_EQ(fs.accepted, 6u);
  EXPECT_EQ(fs.rejected, 3u);
}

// --- forwarding -------------------------------------------------------------

TEST_F(OverlayFilterFixture, RelayForwardsAcceptedTraceAsView) {
  pubsub::Topology topo(net);
  std::vector<TraceFilterHandle> handles;
  auto brokers = topo.make_chain(
      3, transport::LinkParams::ideal_profile(), "b",
      [&](const std::string& name) {
        pubsub::Broker::Options o{.name = name};
        handles.push_back(install_trace_filter(o, anchors, net));
        return o;
      });
  std::vector<std::uint64_t> delivered;
  brokers[2]->subscribe_local(topic(), [&](const pubsub::Message& m) {
    delivered.push_back(m.sequence);
  });
  net.run_for(10 * kMillisecond);

  const crypto::RsaKeyPair key = crypto::rsa_generate(rng, kBits);
  const AuthorizationToken tok = make_token(key, owner.keys.private_key);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    brokers[0]->publish_from_broker(make_trace(ad, tok, key, seq, net.now()));
  }
  net.run_for(10 * kMillisecond);

  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(handles[1].stats().accepted, 4u);
  EXPECT_EQ(handles[2].stats().accepted, 4u);
  // The relay verified each trace and re-sent its wire bytes: no owning
  // copy, no re-encode.
  const pubsub::BrokerStats relay = brokers[1]->stats();
  EXPECT_EQ(relay.forwarded, 4u);
  EXPECT_EQ(relay.view_forwards, relay.forwarded);
  EXPECT_EQ(relay.materialized, 0u);
}

// --- determinism ------------------------------------------------------------

TEST(OverlayFilterDeterminismTest, VirtualTimeRunsAreRepeatable) {
  using Transcript = std::vector<std::tuple<std::uint64_t, TimePoint, int>>;
  auto run_once = []() {
    Transcript transcript;
    testing::TracingHarness h(/*broker_count=*/2);
    auto entity = h.make_entity("svc", 0);
    EXPECT_TRUE(h.start_tracing(*entity).is_ok());
    auto tracker = h.make_tracker("watch", 1);
    EXPECT_TRUE(h.track(*tracker, "svc",
                        kCatAllUpdates | kCatStateTransitions,
                        [&](const TracePayload& p, const pubsub::Message& m) {
                          transcript.emplace_back(m.sequence, m.timestamp,
                                                  static_cast<int>(p.type));
                        })
                    .is_ok());
    h.net.run_for(2 * kSecond);
    const TraceFilterStats fs = h.filters[1].stats();
    const TokenCacheStats cs = h.filters[1].cache_stats();
    return std::make_tuple(transcript, fs.checked, fs.accepted, cs.hits,
                           cs.misses);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(std::get<0>(a).empty());
  EXPECT_GT(std::get<1>(a), 0u);
  // Identical seeds -> identical trace transcripts AND identical filter
  // and cache decisions on the virtual clock.
  EXPECT_EQ(a, b);
}

// --- real-time burst (TSan target) ------------------------------------------

TEST(OverlayFilterRealTimeTest, BurstKeepsOrderAndCountsForgeries) {
  transport::RealTimeNetwork net;
  Rng rng(131);
  const TimePoint t0 = net.now();  // steady-clock epoch, NOT zero
  crypto::CertificateAuthority ca("rt-ca", rng, kBits);
  const crypto::Identity owner = crypto::Identity::create(
      "owner-1", ca, rng, t0, 3600 * kSecond, kBits);
  const crypto::RsaKeyPair tdn_keys = crypto::rsa_generate(rng, kBits);
  const discovery::TopicAdvertisement ad =
      make_ad(owner, tdn_keys, Uuid::generate(rng), t0);
  TrustAnchors anchors{ca.public_key(), tdn_keys.public_key};

  pubsub::Topology topo(net);
  pubsub::Broker& b0 = topo.add_broker({.name = "rt-b0"});
  // Strikes are the assertion here, not disconnection: keep the peer
  // connected through all 18 forgeries so later messages still flow.
  pubsub::Broker::Options o{.name = "rt-b1", .misbehaviour_threshold = 1000};
  TraceFilterHandle handle = install_trace_filter(o, anchors, net);
  pubsub::Broker& b1 = topo.add_broker(std::move(o));
  transport::LinkParams link = transport::LinkParams::ideal_profile();
  link.base_latency = 200;  // 0.2 ms
  topo.connect_brokers(b0, b1, link);

  const std::string topic = pubsub::trace_topics::trace_publication(
      ad.topic().to_string(), "AllUpdates");
  std::mutex mu;
  std::vector<std::uint64_t> delivered;
  b1.subscribe_local(topic, [&](const pubsub::Message& m) {
    const std::lock_guard<std::mutex> l(mu);
    delivered.push_back(m.sequence);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Burst: three legitimate delegate keys plus a forgery, round-robin on
  // one topic, posted from the test thread while b1 verifies.
  constexpr std::uint64_t kTotal = 72;
  std::vector<crypto::RsaKeyPair> keys;
  std::vector<AuthorizationToken> tokens;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(crypto::rsa_generate(rng, kBits));
    tokens.push_back(AuthorizationToken::create(
        ad, keys.back().public_key, TokenRights::kPublish, t0,
        t0 + 600 * kSecond, owner.keys.private_key));
  }
  const crypto::RsaKeyPair bad_key = crypto::rsa_generate(rng, kBits);
  Rng mallory_rng(5);
  const crypto::Identity mallory = crypto::Identity::create(
      "mallory", ca, mallory_rng, t0, 3600 * kSecond, kBits);
  const AuthorizationToken forged = AuthorizationToken::create(
      ad, bad_key.public_key, TokenRights::kPublish, t0, t0 + 600 * kSecond,
      mallory.keys.private_key);

  std::vector<std::uint64_t> expected_good;
  for (std::uint64_t seq = 1; seq <= kTotal; ++seq) {
    const std::size_t slot = (seq - 1) % 4;
    pubsub::Message m =
        slot < 3 ? make_trace(ad, tokens[slot], keys[slot], seq, net.now())
                 : make_trace(ad, forged, bad_key, seq, net.now());
    if (slot < 3) expected_good.push_back(seq);
    net.post(b0.node(), [&b0, m]() mutable {
      b0.publish_from_broker(std::move(m));
    });
  }
  const std::uint64_t kGood = expected_good.size();
  const std::uint64_t kForged = kTotal - kGood;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto settled = [&]() {
    const TraceFilterStats fs = handle.stats();
    if (fs.accepted + fs.rejected < kTotal) return false;
    if (b1.stats().discarded < kForged) return false;
    const std::lock_guard<std::mutex> l(mu);
    return delivered.size() >= kGood;
  };
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  {
    const std::lock_guard<std::mutex> l(mu);
    // FIFO link + inline verification: the accepted traces arrive in
    // exactly their publication order.
    EXPECT_EQ(delivered, expected_good);
  }
  const TraceFilterStats fs = handle.stats();
  EXPECT_EQ(fs.checked, kTotal);
  EXPECT_EQ(fs.accepted, kGood);
  EXPECT_EQ(fs.rejected, kForged);
  EXPECT_EQ(b1.stats().discarded, kForged);
  net.stop();
}

}  // namespace
}  // namespace et::tracing
