// Security & authorization scenarios: confidential traces (§5.1),
// discovery restrictions (§3.4), forged registrations/tokens (§4), and
// denial-of-service handling (§5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/pubsub/client.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::TracingHarness;

TracingConfig secure_config() {
  TracingConfig c = TracingHarness::fast_config();
  c.secure_traces = true;
  return c;
}

TEST(SecurityTest, SecureTracesAreEncryptedAndDecryptable) {
  TracingHarness h(1, secure_config());
  auto entity = h.make_entity("secret-svc");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("cleared-tracker");
  int received = 0;
  bool all_encrypted = true;
  ASSERT_TRUE(h.track(*tracker, "secret-svc", kCatAllUpdates,
                      [&](const TracePayload& p, const pubsub::Message& m) {
                        if (p.type == TraceType::kAllsWell) {
                          ++received;
                          all_encrypted &= m.encrypted;
                        }
                      })
                  .is_ok());

  h.net.run_for(2 * kSecond);
  EXPECT_GT(received, 5);
  EXPECT_TRUE(all_encrypted);
  EXPECT_EQ(tracker->stats().keys_received, 1u);
  EXPECT_GE(h.services[0]->stats().keys_distributed, 1u);
  const auto view = h.services[0]->session_view("secret-svc");
  EXPECT_TRUE(view.secure);
}

TEST(SecurityTest, EavesdropperWithoutKeySeesOnlyCiphertext) {
  TracingHarness h(1, secure_config());
  auto entity = h.make_entity("secret-svc2");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  // A legit tracker gets the key flowing; the eavesdropper subscribes to
  // the raw topic directly (it "guessed" the UUID) but never runs the key
  // exchange.
  auto tracker = h.make_tracker("legit");
  ASSERT_TRUE(h.track(*tracker, "secret-svc2", kCatAllUpdates,
                      [](const TracePayload&, const pubsub::Message&) {})
                  .is_ok());

  pubsub::Client eavesdropper(h.net, "eve");
  eavesdropper.connect(h.brokers[0]->node(), TracingHarness::link());
  const std::string raw_topic = pubsub::trace_topics::trace_publication(
      entity->trace_topic().to_string(), "AllUpdates");
  int cipher_seen = 0;
  int plain_readable = 0;
  eavesdropper.subscribe(raw_topic, [&](const pubsub::Message& m) {
    if (!m.encrypted) {
      ++plain_readable;
      return;
    }
    ++cipher_seen;
    // Ciphertext must not parse as a trace payload.
    try {
      (void)TracePayload::deserialize(m.payload);
      ++plain_readable;
    } catch (const std::exception&) {
    }
  });

  h.net.run_for(2 * kSecond);
  EXPECT_GT(cipher_seen, 3);      // routing doesn't hide the stream...
  EXPECT_EQ(plain_readable, 0);   // ...but the contents stay opaque
}

TEST(SecurityTest, DiscoveryRestrictionsBlockUnauthorizedTrackers) {
  TracingHarness h;
  auto entity = h.make_entity("restricted-svc");
  discovery::DiscoveryRestrictions restrictions;
  restrictions.authorized_subjects = {"friend"};
  ASSERT_TRUE(h.start_tracing(*entity, restrictions).is_ok());

  auto friendly = h.make_tracker("friend");
  auto stranger = h.make_tracker("stranger");

  const Status ok = h.track(*friendly, "restricted-svc", kCatAllUpdates,
                            [](const TracePayload&, const pubsub::Message&) {});
  EXPECT_TRUE(ok.is_ok()) << ok.to_string();

  const Status denied =
      h.track(*stranger, "restricted-svc", kCatAllUpdates,
              [](const TracePayload&, const pubsub::Message&) {});
  // §3.4: the TDN stays silent; the stranger times out with NOT_FOUND and
  // cannot proceed.
  EXPECT_EQ(denied.code(), Code::kNotFound);
  EXPECT_GT(h.tdn->stats().discoveries_ignored, 0u);
}

TEST(SecurityTest, RegistrationWithoutValidCredentialRejected) {
  TracingHarness h;
  // An identity signed by a rogue CA the deployment does not trust.
  Rng rogue_rng(99);
  crypto::CertificateAuthority rogue_ca("rogue-ca", rogue_rng,
                                        testing::kTestKeyBits);
  auto rogue = std::make_unique<TracedEntity>(
      h.net, crypto::Identity::create("imposter", rogue_ca, rogue_rng,
                                      h.net.now(), 3600 * kSecond,
                                      testing::kTestKeyBits),
      h.anchors, TracingHarness::fast_config(), 7);
  rogue->attach_tdn(h.tdn->node(), TracingHarness::link());
  rogue->connect_broker(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);

  const Status s = h.start_tracing(*rogue);
  EXPECT_FALSE(s.is_ok());
  EXPECT_FALSE(h.services[0]->has_session_for("imposter"));
  // Rejected at the TDN (topic creation needs a trusted credential).
  EXPECT_GT(h.tdn->stats().rejected_requests, 0u);
}

TEST(SecurityTest, ForgedRegistrationWithStolenAdvertisementRejected) {
  TracingHarness h;
  auto victim = h.make_entity("victim");
  ASSERT_TRUE(h.start_tracing(*victim).is_ok());

  // Mallory (valid credential) replays the victim's advertisement under
  // her own registration.
  const crypto::Identity mallory = h.make_identity("mallory");
  pubsub::Client client(h.net, "mallory");
  client.connect(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(10 * kMillisecond);

  RegistrationRequest req;
  req.entity_id = "mallory";
  req.credential = mallory.credential;
  req.advertisement = victim->advertisement();  // stolen
  req.request_id = 42;

  pubsub::Message m;
  m.topic = pubsub::trace_topics::registration();
  m.payload = req.serialize();
  m.publisher = "mallory";
  m.sequence = 1;
  m.timestamp = h.net.now();
  m.signature = mallory.keys.private_key.sign(m.signable_bytes());
  client.publish(std::move(m));
  h.net.run_for(100 * kMillisecond);

  EXPECT_FALSE(h.services[0]->has_session_for("mallory"));
  EXPECT_GT(h.services[0]->stats().rejected_registrations, 0u);
}

TEST(SecurityTest, SpuriousTracesWithoutTokenAreDiscarded) {
  TracingHarness h(/*broker_count=*/2);
  auto entity = h.make_entity("target", 0);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("watcher", 1);
  int bogus_seen = 0;
  ASSERT_TRUE(h.track(*tracker, "target", kCatChangeNotifications,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kFailed) ++bogus_seen;
                      })
                  .is_ok());

  // The attacker knows the trace topic (suppose it leaked) and injects a
  // fake FAILED trace without any token.
  pubsub::Client attacker(h.net, "attacker");
  attacker.connect(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(10 * kMillisecond);

  TracePayload fake;
  fake.type = TraceType::kFailed;
  fake.entity_id = "target";
  pubsub::Message m;
  m.topic = pubsub::trace_topics::trace_publication(
      entity->trace_topic().to_string(), "ChangeNotifications");
  m.payload = fake.serialize();
  attacker.publish(std::move(m));
  h.net.run_for(200 * kMillisecond);

  EXPECT_EQ(bogus_seen, 0);
  // Discarded at the attacker's own broker edge: the topic is
  // Publish-Only for brokers, so a client publish is rejected outright.
  EXPECT_GT(h.brokers[0]->stats().discarded, 0u);
}

TEST(SecurityTest, RepeatedBogusAttemptsTerminateCommunications) {
  TracingHarness h;
  pubsub::Client attacker(h.net, "flooder");
  attacker.connect(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(10 * kMillisecond);

  // §5.2: after several unauthorized publishes the broker disconnects us.
  for (int i = 0; i < 10; ++i) {
    pubsub::Message m;
    m.topic = "Constrained/Traces/Broker/Publish-Only/forged/" +
              std::to_string(i);
    m.payload = to_bytes("spurious");
    attacker.publish(std::move(m));
    h.net.run_for(20 * kMillisecond);
  }
  EXPECT_TRUE(h.brokers[0]->is_blacklisted(attacker.node()));
  EXPECT_GE(h.brokers[0]->stats().disconnects, 1u);
  EXPECT_FALSE(h.net.linked(attacker.node(), h.brokers[0]->node()));
}

TEST(SecurityTest, TrackerRejectsTamperedTraces) {
  TracingHarness h;
  auto entity = h.make_entity("svc-integrity");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  // A tracker whose handler also counts rejections via stats.
  auto tracker = h.make_tracker("strict");
  ASSERT_TRUE(h.track(*tracker, "svc-integrity", kCatAllUpdates,
                      [](const TracePayload&, const pubsub::Message&) {})
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  const std::uint64_t received_before = tracker->stats().traces_received;
  EXPECT_GT(received_before, 0u);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);

  // Replay one of the broker's topics with a token-less forgery straight
  // over the tracker's access link: the tracker's own verification (not
  // just the broker filter) must reject it.
  pubsub::Message forged;
  forged.topic = pubsub::trace_topics::trace_publication(
      entity->trace_topic().to_string(), "AllUpdates");
  TracePayload p;
  p.type = TraceType::kAllsWell;
  p.entity_id = "svc-integrity";
  forged.payload = p.serialize();
  forged.publisher = "nobody";
  // Deliver directly, bypassing brokers (a compromised last hop).
  pubsub::Frame f = pubsub::make_publish(forged);
  h.net.link(h.tdn->node(), tracker->client().node(),
             TracingHarness::link());
  (void)h.net.send(h.tdn->node(), tracker->client().node(), f.serialize());
  h.net.run_for(100 * kMillisecond);

  EXPECT_GT(tracker->stats().traces_rejected, 0u);
}

TEST(SecurityTest, TrackerRejectsSubscribeRightsToken) {
  TracingHarness h;
  const crypto::Identity owner = h.make_identity("svc-rights");
  auto entity = h.make_entity(owner);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("strict");
  std::vector<Bytes> handled;  // signatures of the messages delivered
  ASSERT_TRUE(h.track(*tracker, "svc-rights", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message& m) {
                        handled.push_back(m.signature);
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  // The owner grants subscribe rights only; every other check would pass:
  // the chain verifies, the token names the trace topic and its delegate
  // signs the trace.
  const crypto::RsaKeyPair delegate =
      crypto::rsa_generate(h.rng, testing::kTestKeyBits);
  const auto forge = [&](TokenRights rights) {
    const AuthorizationToken token = AuthorizationToken::create(
        entity->advertisement(), delegate.public_key, rights, h.net.now(),
        h.net.now() + 60 * kSecond, owner.keys.private_key);
    TracePayload p;
    p.type = TraceType::kAllsWell;
    p.entity_id = "svc-rights";
    p.detail = "forged";
    pubsub::Message m;
    m.topic = pubsub::trace_topics::trace_publication(
        entity->trace_topic().to_string(), "AllUpdates");
    m.payload = p.serialize();
    m.publisher = "rogue-broker";
    m.timestamp = h.net.now();
    m.auth_token = token.serialize();
    m.signature = delegate.private_key.sign(m.signable_bytes());
    return m;
  };
  const auto handled_count = [&](const pubsub::Message& m) {
    return std::count(handled.begin(), handled.end(), m.signature);
  };

  const pubsub::Message subscribe_only = forge(TokenRights::kSubscribe);
  const std::uint64_t rejected = tracker->stats().traces_rejected;
  h.deliver_direct(*tracker, subscribe_only);
  EXPECT_EQ(tracker->stats().traces_rejected, rejected + 1);
  EXPECT_EQ(handled_count(subscribe_only), 0);

  // The same forgery with publish rights is accepted: rights alone decided.
  const pubsub::Message publish = forge(TokenRights::kPublish);
  h.deliver_direct(*tracker, publish);
  EXPECT_EQ(tracker->stats().traces_rejected, rejected + 1);
  EXPECT_EQ(handled_count(publish), 1);
}

TEST(SecurityTest, ExpiredTokenStopsTraceRouting) {
  TracingConfig c = TracingHarness::fast_config();
  c.token_lifetime = 700 * kMillisecond;  // very short delegation
  c.auto_renew_tokens = false;            // let it lapse (§4.3 renewal off)
  TracingHarness h(1, c);
  auto entity = h.make_entity("svc-shortlease");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("lease-watcher");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-shortlease", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  const int before_expiry = received;
  EXPECT_GT(before_expiry, 0);

  // Run past the token expiry: the tracker (and any filter) must reject
  // traces signed under the stale token.
  h.net.run_for(2 * kSecond);
  const std::uint64_t rejected = tracker->stats().traces_rejected;
  EXPECT_GT(rejected, 0u);
}

TEST(SecurityTest, SymmetricSessionModeStillAuthenticates) {
  TracingConfig c = TracingHarness::fast_config();
  c.signing_mode = EntitySigningMode::kSymmetricSession;  // §6.3
  TracingHarness h(1, c);
  auto entity = h.make_entity("svc-fast");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("fast-watcher");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-fast", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(1 * kSecond);
  EXPECT_GT(received, 3);
  EXPECT_EQ(h.services[0]->stats().rejected_session_messages, 0u);

  // An attacker without the session key cannot inject session messages.
  pubsub::Client attacker(h.net, "spoofer");
  attacker.connect(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(10 * kMillisecond);
  pubsub::Message m;
  m.topic = pubsub::trace_topics::entity_to_broker(
      entity->trace_topic().to_string(), entity->session_id().to_string());
  SessionMessage sm;
  sm.type = SessionMsgType::kSilentMode;  // try to kill the session
  m.payload = sm.serialize();
  m.encrypted = false;
  attacker.publish(std::move(m));
  h.net.run_for(100 * kMillisecond);

  EXPECT_GT(h.services[0]->stats().rejected_session_messages, 0u);
  EXPECT_TRUE(h.services[0]->has_session_for("svc-fast"));  // still alive
}

}  // namespace
}  // namespace et::tracing
