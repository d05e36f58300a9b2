// Unit tests of trace vocabulary, payload serialization, authorization
// tokens and the broker-side trace filter.
#include <gtest/gtest.h>

#include "src/pubsub/message.h"
#include "src/tracing/authorization_token.h"
#include "src/tracing/registration.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/trace_message.h"
#include "src/transport/virtual_network.h"

namespace et::tracing {
namespace {

constexpr std::size_t kBits = 512;

struct TokenFixture : ::testing::Test {
  TokenFixture() : rng(21), ca("ca", rng, kBits) {
    owner = crypto::Identity::create("owner-1", ca, rng, 0, 3600 * kSecond,
                                     kBits);
    tdn_keys = crypto::rsa_generate(rng, kBits);
    delegate = crypto::rsa_generate(rng, kBits);

    // A TDN-signed advertisement for the owner.
    Uuid topic = Uuid::generate(rng);
    discovery::TopicAdvertisement unsigned_ad(
        topic, "Availability/Traces/owner-1", owner.credential, {}, 0,
        3600 * kSecond, "tdn-0", {});
    ad = discovery::TopicAdvertisement(
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

  Rng rng;
  crypto::CertificateAuthority ca;
  crypto::Identity owner;
  crypto::RsaKeyPair tdn_keys;
  crypto::RsaKeyPair delegate;
  discovery::TopicAdvertisement ad;
};

TEST_F(TokenFixture, ValidTokenVerifies) {
  const AuthorizationToken t = make_token();
  EXPECT_TRUE(t.verify(tdn_keys.public_key, ca.public_key(), kSecond).is_ok());
  EXPECT_EQ(t.trace_topic(), ad.topic());
  EXPECT_EQ(t.rights(), TokenRights::kPublish);
}

TEST_F(TokenFixture, SerializationRoundTrip) {
  const AuthorizationToken t = make_token();
  const AuthorizationToken parsed =
      AuthorizationToken::deserialize(t.serialize());
  EXPECT_EQ(parsed.trace_topic(), t.trace_topic());
  EXPECT_EQ(parsed.delegate_key(), t.delegate_key());
  EXPECT_EQ(parsed.valid_until(), t.valid_until());
  EXPECT_TRUE(
      parsed.verify(tdn_keys.public_key, ca.public_key(), kSecond).is_ok());
}

TEST_F(TokenFixture, WrongTdnKeyFails) {
  Rng other_rng(5);
  const crypto::RsaKeyPair other = crypto::rsa_generate(other_rng, kBits);
  const AuthorizationToken t = make_token();
  EXPECT_FALSE(t.verify(other.public_key, ca.public_key(), kSecond).is_ok());
}

TEST_F(TokenFixture, WrongCaFails) {
  Rng other_rng(6);
  crypto::CertificateAuthority other("other-ca", other_rng, kBits);
  const AuthorizationToken t = make_token();
  EXPECT_FALSE(
      t.verify(tdn_keys.public_key, other.public_key(), kSecond).is_ok());
}

TEST_F(TokenFixture, NotSignedByOwnerFails) {
  Rng mallory_rng(7);
  const crypto::Identity mallory = crypto::Identity::create(
      "mallory", ca, mallory_rng, 0, 3600 * kSecond, kBits);
  // Mallory signs a token for the owner's advertisement.
  const AuthorizationToken t = AuthorizationToken::create(
      ad, delegate.public_key, TokenRights::kPublish, 0, 600 * kSecond,
      mallory.keys.private_key);
  const Status s = t.verify(tdn_keys.public_key, ca.public_key(), kSecond);
  EXPECT_EQ(s.code(), Code::kUnauthenticated);
}

TEST_F(TokenFixture, ExpiryWithSkewAllowance) {
  const AuthorizationToken t = make_token(0, 10 * kSecond);
  // Just past expiry but within the 100 ms skew allowance: accepted.
  EXPECT_TRUE(t.verify(tdn_keys.public_key, ca.public_key(),
                       10 * kSecond + 50 * kMillisecond)
                  .is_ok());
  // Beyond the allowance: rejected.
  EXPECT_EQ(t.verify(tdn_keys.public_key, ca.public_key(),
                     10 * kSecond + 200 * kMillisecond)
                .code(),
            Code::kExpired);
}

TEST_F(TokenFixture, NotYetValidWithSkewAllowance) {
  const AuthorizationToken t = make_token(10 * kSecond, 20 * kSecond);
  EXPECT_TRUE(t.verify(tdn_keys.public_key, ca.public_key(),
                       10 * kSecond - 50 * kMillisecond)
                  .is_ok());
  EXPECT_EQ(t.verify(tdn_keys.public_key, ca.public_key(), 5 * kSecond)
                .code(),
            Code::kExpired);
}

TEST_F(TokenFixture, DelegateSignatureVerification) {
  const AuthorizationToken t = make_token();
  const Bytes msg = to_bytes("a trace message body");
  const Bytes sig = delegate.private_key.sign(msg);
  EXPECT_TRUE(t.verify_delegate_signature(msg, sig));
  EXPECT_FALSE(t.verify_delegate_signature(to_bytes("other"), sig));
  // Owner's signature is NOT the delegate's.
  EXPECT_FALSE(
      t.verify_delegate_signature(msg, owner.keys.private_key.sign(msg)));
}

TEST_F(TokenFixture, EmptyTokenRejected) {
  AuthorizationToken empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(
      empty.verify(tdn_keys.public_key, ca.public_key(), 0).is_ok());
}

// --- trace filter ---------------------------------------------------------

struct FilterFixture : TokenFixture {
  FilterFixture() {
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_keys.public_key;
    filter = make_trace_filter(anchors, net);
  }

  pubsub::Message trace_message(const AuthorizationToken& t,
                                const crypto::RsaPrivateKey& signer) {
    TracePayload p;
    p.type = TraceType::kAllsWell;
    p.entity_id = "owner-1";
    pubsub::Message m;
    m.topic = pubsub::trace_topics::trace_publication(
        ad.topic().to_string(), "AllUpdates");
    m.payload = p.serialize();
    m.publisher = "broker-x";
    m.sequence = 1;
    m.timestamp = net.now();
    m.auth_token = t.serialize();
    m.signature = signer.sign(m.signable_bytes());
    return m;
  }

  /// Drives the filter the way a broker would: it sees a view of `m`,
  /// exactly as it would see a decoded wire frame, and returns its
  /// verdict (ok = accept).
  Status run(pubsub::Message m) { return filter(broker, m.as_view(), 0); }

  transport::VirtualTimeNetwork net{9};
  TrustAnchors anchors;
  pubsub::MessageFilter filter;
  pubsub::Broker broker{net, {.name = "fixture-broker"}};
};

TEST_F(FilterFixture, AcceptsProperlyTokenedTrace) {
  const AuthorizationToken t = make_token();
  const pubsub::Message m = trace_message(t, delegate.private_key);
  EXPECT_TRUE(run(m).is_ok());
}

TEST_F(FilterFixture, IgnoresNonTraceTopics) {
  pubsub::Message m;
  m.topic = "plain/topic";
  EXPECT_TRUE(run(m).is_ok());
  m.topic = "Constrained/Traces/Broker/Subscribe-Only/Registration";
  EXPECT_TRUE(run(m).is_ok());  // Subscribe-Only: not a publication
}

TEST_F(FilterFixture, RejectsMissingToken) {
  const AuthorizationToken t = make_token();
  pubsub::Message m = trace_message(t, delegate.private_key);
  m.auth_token.clear();
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
}

TEST_F(FilterFixture, RejectsGarbageToken) {
  const AuthorizationToken t = make_token();
  pubsub::Message m = trace_message(t, delegate.private_key);
  m.auth_token = to_bytes("garbage");
  EXPECT_FALSE(run(m).is_ok());
}

TEST_F(FilterFixture, RejectsWrongTopicToken) {
  // Token minted for a different trace topic.
  Uuid other_topic = Uuid::generate(rng);
  discovery::TopicAdvertisement unsigned_ad(
      other_topic, "Availability/Traces/owner-1", owner.credential, {}, 0,
      3600 * kSecond, "tdn-0", {});
  discovery::TopicAdvertisement other_ad(
      other_topic, "Availability/Traces/owner-1", owner.credential, {}, 0,
      3600 * kSecond, "tdn-0", tdn_keys.private_key.sign(unsigned_ad.tbs()));
  const AuthorizationToken t = AuthorizationToken::create(
      other_ad, delegate.public_key, TokenRights::kPublish, 0,
      600 * kSecond, owner.keys.private_key);
  pubsub::Message m = trace_message(t, delegate.private_key);
  // m.topic still names the original ad's UUID.
  EXPECT_EQ(run(m).code(), Code::kPermissionDenied);
}

TEST_F(FilterFixture, RejectsWrongSigner) {
  const AuthorizationToken t = make_token();
  const pubsub::Message m = trace_message(t, owner.keys.private_key);
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
}

TEST_F(FilterFixture, RejectsSubscribeRightsToken) {
  const AuthorizationToken t = AuthorizationToken::create(
      ad, delegate.public_key, TokenRights::kSubscribe, 0, 600 * kSecond,
      owner.keys.private_key);
  const pubsub::Message m = trace_message(t, delegate.private_key);
  EXPECT_EQ(run(m).code(), Code::kPermissionDenied);
}

TEST_F(FilterFixture, RejectsTamperedPayload) {
  const AuthorizationToken t = make_token();
  pubsub::Message m = trace_message(t, delegate.private_key);
  m.payload.push_back(0xFF);  // bit-flip after signing
  EXPECT_EQ(run(m).code(), Code::kUnauthenticated);
}

// --- payload serialization -------------------------------------------------

TEST(TracePayloadTest, FullRoundTrip) {
  TracePayload p;
  p.type = TraceType::kNetworkMetrics;
  p.entity_id = "svc-1";
  p.issued_at = 123456;
  p.state = EntityState::kReady;
  p.load = LoadInfo{0.5, 0.25, 7};
  p.metrics = NetworkMetrics{0.01, 3.5, 0.0, 12.5};
  p.secured = true;
  p.detail = "details";
  const TracePayload q = TracePayload::deserialize(p.serialize());
  EXPECT_EQ(q.type, p.type);
  EXPECT_EQ(q.entity_id, p.entity_id);
  EXPECT_EQ(q.issued_at, p.issued_at);
  EXPECT_EQ(q.state, p.state);
  EXPECT_EQ(q.load, p.load);
  EXPECT_EQ(q.metrics, p.metrics);
  EXPECT_EQ(q.secured, p.secured);
  EXPECT_EQ(q.detail, p.detail);
}

TEST(TracePayloadTest, MinimalRoundTrip) {
  TracePayload p;
  p.type = TraceType::kAllsWell;
  const TracePayload q = TracePayload::deserialize(p.serialize());
  EXPECT_EQ(q.type, TraceType::kAllsWell);
  EXPECT_FALSE(q.state);
  EXPECT_FALSE(q.load);
  EXPECT_FALSE(q.metrics);
}

TEST(TracePayloadTest, RejectsUnknownType) {
  TracePayload p;
  p.type = TraceType::kAllsWell;
  Bytes b = p.serialize();
  b[0] = 200;
  EXPECT_THROW(TracePayload::deserialize(b), SerializeError);
}

TEST(SessionMessageTest, PingRoundTrip) {
  SessionMessage sm;
  sm.type = SessionMsgType::kPing;
  sm.ping_number = 42;
  sm.ping_timestamp = 987654;
  const SessionMessage q = SessionMessage::deserialize(sm.serialize());
  EXPECT_EQ(q.type, SessionMsgType::kPing);
  EXPECT_EQ(q.ping_number, 42u);
  EXPECT_EQ(q.ping_timestamp, 987654);
}

TEST(SessionMessageTest, TokenDeliveryRoundTrip) {
  SessionMessage sm;
  sm.type = SessionMsgType::kTokenDelivery;
  sm.token = to_bytes("token-bytes");
  sm.delegate_secret = to_bytes("key-bytes");
  const SessionMessage q = SessionMessage::deserialize(sm.serialize());
  EXPECT_EQ(q.token, to_bytes("token-bytes"));
  EXPECT_EQ(q.delegate_secret, to_bytes("key-bytes"));
}

// --- trace vocabulary -------------------------------------------------------

TEST(TraceTypesTest, NamesMatchPaperTable1) {
  EXPECT_EQ(trace_type_name(TraceType::kFailureSuspicion),
            "FAILURE_SUSPICION");
  EXPECT_EQ(trace_type_name(TraceType::kAllsWell), "ALLS_WELL");
  EXPECT_EQ(trace_type_name(TraceType::kRevertingToSilentMode),
            "REVERTING_TO_SILENT_MODE");
  EXPECT_EQ(trace_type_name(TraceType::kGaugeInterest), "GAUGE_INTEREST");
}

TEST(TraceTypesTest, CategoriesMatchPaperTable2) {
  EXPECT_EQ(category_of(TraceType::kJoin), kCatChangeNotifications);
  EXPECT_EQ(category_of(TraceType::kFailed), kCatChangeNotifications);
  EXPECT_EQ(category_of(TraceType::kFailureSuspicion),
            kCatChangeNotifications);
  EXPECT_EQ(category_of(TraceType::kDisconnect), kCatChangeNotifications);
  EXPECT_EQ(category_of(TraceType::kRevertingToSilentMode),
            kCatChangeNotifications);
  EXPECT_EQ(category_of(TraceType::kAllsWell), kCatAllUpdates);
  EXPECT_EQ(category_of(TraceType::kReady), kCatStateTransitions);
  EXPECT_EQ(category_of(TraceType::kLoadInformation), kCatLoad);
  EXPECT_EQ(category_of(TraceType::kNetworkMetrics), kCatNetworkMetrics);
  EXPECT_EQ(category_of(TraceType::kGaugeInterest), 0);
}

TEST(TraceTypesTest, CategorySuffixes) {
  EXPECT_EQ(category_suffix(kCatChangeNotifications), "ChangeNotifications");
  EXPECT_EQ(category_suffix(kCatAllUpdates), "AllUpdates");
  EXPECT_EQ(category_suffix(kCatStateTransitions), "StateTransitions");
  EXPECT_EQ(category_suffix(kCatLoad), "Load");
  EXPECT_EQ(category_suffix(kCatNetworkMetrics), "NetworkMetrics");
}

TEST(TraceTypesTest, StateMapping) {
  EXPECT_EQ(state_trace_type(EntityState::kReady), TraceType::kReady);
  EXPECT_EQ(state_trace_type(EntityState::kShutdown), TraceType::kShutdown);
  EXPECT_EQ(entity_state_name(EntityState::kRecovering), "RECOVERING");
}

TEST(TraceTypesTest, AllCategoryMaskCoversAll) {
  EXPECT_EQ(kCatAll, kCatChangeNotifications | kCatAllUpdates |
                         kCatStateTransitions | kCatLoad |
                         kCatNetworkMetrics);
}

// --- sealed envelope --------------------------------------------------------

TEST(SealedEnvelopeTest, RoundTrip) {
  Rng rng(31);
  const crypto::RsaKeyPair recipient = crypto::rsa_generate(rng, kBits);
  const Bytes secret = to_bytes("the secret trace key material");
  const SealedEnvelope env = SealedEnvelope::seal(
      secret, recipient.public_key, rng, crypto::SymmetricAlg::kAes192Cbc);
  EXPECT_EQ(env.open(recipient.private_key), secret);
}

TEST(SealedEnvelopeTest, WrongRecipientCannotOpen) {
  Rng rng(32);
  const crypto::RsaKeyPair alice = crypto::rsa_generate(rng, kBits);
  const crypto::RsaKeyPair bob = crypto::rsa_generate(rng, kBits);
  const SealedEnvelope env =
      SealedEnvelope::seal(to_bytes("secret"), alice.public_key, rng,
                           crypto::SymmetricAlg::kAes192Cbc);
  EXPECT_THROW((void)env.open(bob.private_key), std::invalid_argument);
}

TEST(SealedEnvelopeTest, SerializationRoundTrip) {
  Rng rng(33);
  const crypto::RsaKeyPair recipient = crypto::rsa_generate(rng, kBits);
  const SealedEnvelope env =
      SealedEnvelope::seal(to_bytes("payload"), recipient.public_key, rng,
                           crypto::SymmetricAlg::kAes256Cbc);
  const SealedEnvelope parsed = SealedEnvelope::deserialize(env.serialize());
  EXPECT_EQ(parsed.open(recipient.private_key), to_bytes("payload"));
}

}  // namespace
}  // namespace et::tracing
