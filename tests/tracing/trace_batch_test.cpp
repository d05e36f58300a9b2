// End-of-pass trace batches (DESIGN.md §14, "Trace batches"): a hosting
// broker signs one message per session per event-loop pass. A lone trace
// travels exactly as it always did; k traces share one signature, one
// ledger record and one filter check per hop, and the tracker hands them
// to its handler in issue order. Cut points keep each session's
// publications in the order they were made, and a malformed batch never
// reaches a handler.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/crypto/sha256.h"
#include "src/persist/ledger.h"
#include "src/pubsub/constrained_topic.h"
#include "src/pubsub/message.h"
#include "src/tracing/entity_host.h"
#include "src/tracing/trace_emitter.h"
#include "src/tracing/trace_message.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

namespace tt = pubsub::trace_topics;
using testing::kTestKeyBits;
using testing::TracingHarness;

TracePayload state_payload(EntityState s, const std::string& entity_id) {
  TracePayload p;
  p.type = state_trace_type(s);
  p.entity_id = entity_id;
  p.state = s;
  return p;
}

/// A batch body with an arbitrary wire count over `entries`.
Bytes raw_batch(std::uint32_t count, const std::vector<Bytes>& entries) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(TraceType::kBatch));
  w.u32(count);
  for (const Bytes& e : entries) w.bytes(e);
  return std::move(w).take();
}

// --- the batch body codec ---------------------------------------------------

TEST(TraceBatchCodecTest, RoundTripKeepsIssueOrder) {
  std::vector<Bytes> entries;
  std::vector<TracePayload> sent;
  for (const EntityState s : {EntityState::kReady, EntityState::kRecovering,
                              EntityState::kShutdown}) {
    sent.push_back(state_payload(s, "svc-" + std::to_string(sent.size())));
    sent.back().issued_at = static_cast<TimePoint>(100 + sent.size());
    entries.push_back(sent.back().serialize());
  }
  const Bytes body = encode_trace_batch(entries);
  ASSERT_TRUE(is_trace_batch(body));
  const std::vector<TracePayload> got = decode_trace_batch(body);
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].serialize(), sent[i].serialize()) << i;
  }
}

TEST(TraceBatchCodecTest, NoPayloadBodyReadsAsABatch) {
  for (int t = static_cast<int>(TraceType::kInitializing);
       t <= static_cast<int>(TraceType::kDigest); ++t) {
    TracePayload p;
    p.type = static_cast<TraceType>(t);
    p.entity_id = "svc";
    EXPECT_FALSE(is_trace_batch(p.serialize())) << t;
  }
  EXPECT_FALSE(is_trace_batch(Bytes{}));
}

TEST(TraceBatchCodecTest, RejectsMalformedBodies) {
  const Bytes ready = state_payload(EntityState::kReady, "svc").serialize();
  TracePayload gauge;
  gauge.type = TraceType::kGaugeInterest;
  gauge.entity_id = "svc";
  const std::vector<Bytes> ok_entries(kTraceBatchMax + 1, ready);
  Bytes trailing = raw_batch(2, {ready, ready});
  trailing.push_back(0);
  Bytes truncated = raw_batch(2, {ready, ready});
  truncated.pop_back();

  const std::vector<std::pair<std::string, Bytes>> cases = {
      {"count 0", raw_batch(0, {})},
      {"count 1", raw_batch(1, {ready})},
      {"count past the cap",
       raw_batch(static_cast<std::uint32_t>(kTraceBatchMax + 1), ok_entries)},
      {"count the bytes cannot hold", raw_batch(0xFFFFFFFFu, {ready, ready})},
      {"count above its entries", raw_batch(3, {ready, ready})},
      {"truncated entry", truncated},
      {"trailing byte", trailing},
      {"nested batch",
       raw_batch(2, {ready, encode_trace_batch({ready, ready})})},
      {"GAUGE_INTEREST entry", raw_batch(2, {ready, gauge.serialize()})},
      {"garbage entry", raw_batch(2, {ready, Bytes{0xFF, 0x00}})},
  };
  for (const auto& [name, body] : cases) {
    EXPECT_THROW((void)decode_trace_batch(body), SerializeError) << name;
  }
}

// --- the emitter's batches and cut points -----------------------------------

/// Advertisement for `topic` owned by `owner`, signed with the TDN key.
discovery::TopicAdvertisement make_ad(const crypto::Identity& owner,
                                      const crypto::RsaKeyPair& tdn_keys,
                                      const Uuid& topic) {
  const std::string name = "Availability/Traces/" + owner.credential.subject();
  const discovery::TopicAdvertisement unsigned_ad(
      topic, name, owner.credential, {}, 0, 3600 * kSecond, "tdn-0", {});
  return discovery::TopicAdvertisement(
      topic, name, owner.credential, {}, 0, 3600 * kSecond, "tdn-0",
      tdn_keys.private_key.sign(unsigned_ad.tbs()));
}

/// One publication a broker-local subscriber saw.
struct Published {
  std::string kind;  // topic suffix
  bool batch = false;
  std::vector<TracePayload> traces;  // empty for digests
  pubsub::Message message;

  /// "StateTransitions[READY,RECOVERING]", "Digest", ...
  [[nodiscard]] std::string summary() const {
    if (traces.empty()) return kind;
    std::string out = kind + "[";
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i > 0) out += ",";
      out += trace_type_name(traces[i].type);
    }
    return out + "]";
  }
};

/// A TraceEmitter on a lone broker with digests on, driven directly: the
/// test body is one event-loop pass until it runs the network.
struct TraceBatchEmitterTest : ::testing::Test {
  TraceBatchEmitterTest()
      : rng(71),
        ca("ca", rng, kTestKeyBits),
        net(13),
        broker(net, pubsub::Broker::Options{.name = "broker-0"}),
        wheel(TimerWheel::Scheduler{
            [this](Duration d, std::function<void()> f) {
              return net.schedule(broker.node(), d, std::move(f));
            },
            [this](std::uint64_t id) { net.cancel(id); },
            [this] { return net.now(); }}),
        emitter(broker, rng,
                TraceEmitter::Options{100 * kMillisecond, 256}, &wheel) {
    owner = crypto::Identity::create("owner-1", ca, rng, 0, 3600 * kSecond,
                                     kTestKeyBits);
    const crypto::RsaKeyPair tdn_keys = crypto::rsa_generate(rng, kTestKeyBits);
    ad = make_ad(owner, tdn_keys, Uuid::generate(rng));
    trace_topic = ad.topic().to_string();
    delegate = crypto::rsa_generate(rng, kTestKeyBits);
    token = AuthorizationToken::create(ad, delegate.public_key,
                                       TokenRights::kPublish, 0,
                                       600 * kSecond, owner.keys.private_key);
    for (const char* kind : {tt::kStateTransitions, tt::kLoad, tt::kDigest}) {
      broker.subscribe_local(
          tt::trace_publication(trace_topic, kind),
          [this, kind](const pubsub::Message& m) { record(kind, m); });
    }
    broker.subscribe_local(
        tt::gauge_interest(trace_topic),
        [this](const pubsub::Message& m) { record(tt::kInterest, m); });
  }

  void record(const std::string& kind, const pubsub::Message& m) {
    Published p;
    p.kind = kind;
    p.message = m;
    p.batch = is_trace_batch(m.payload);
    if (p.batch) {
      p.traces = decode_trace_batch(m.payload);
    } else if (kind != tt::kDigest) {
      p.traces.push_back(TracePayload::deserialize(m.payload));
    }
    published.push_back(std::move(p));
  }

  [[nodiscard]] std::vector<std::string> summaries() const {
    std::vector<std::string> out;
    for (const Published& p : published) out.push_back(p.summary());
    return out;
  }

  [[nodiscard]] TraceEmitter::Signing signing() const {
    return {trace_topic, &token, &delegate.private_key, &trace_key, false};
  }

  void trace(EntityState s, const std::string& entity_id = "owner-1") {
    emitter.trace(signing(), "owner-1", state_payload(s, entity_id));
  }

  void fold_one_heartbeat() {
    TraceEmitter::Heartbeats beats;
    beats.epoch = 7;
    beats.members = 1;
    beats.bits = {1};
    beats.count = 1;
    emitter.fold(signing(), "owner-1", beats);
  }

  Rng rng;
  crypto::CertificateAuthority ca;
  transport::VirtualTimeNetwork net;
  pubsub::Broker broker;
  TimerWheel wheel;
  TraceEmitter emitter;
  crypto::Identity owner;
  discovery::TopicAdvertisement ad;
  std::string trace_topic;
  crypto::RsaKeyPair delegate;
  AuthorizationToken token;
  crypto::SecretKey trace_key;
  std::vector<Published> published;
};

TEST_F(TraceBatchEmitterTest, TracesOfOnePassShareOneSignedMessage) {
  trace(EntityState::kReady);
  trace(EntityState::kRecovering);
  trace(EntityState::kInitializing);
  EXPECT_TRUE(published.empty()) << "nothing is signed before the pass ends";
  net.run_until_idle();
  EXPECT_EQ(summaries(),
            std::vector<std::string>{
                "StateTransitions[READY,RECOVERING,INITIALIZING]"});
  ASSERT_EQ(published.size(), 1u);
  EXPECT_TRUE(published[0].batch);
  EXPECT_TRUE(token.verify_delegate_signature(
      published[0].message.signable_bytes(), published[0].message.signature));
  EXPECT_EQ(emitter.stats().traces_published, 1u);
  EXPECT_EQ(emitter.stats().trace_entries, 3u);
}

TEST_F(TraceBatchEmitterTest, TraceOnAnotherTopicCutsTheBatch) {
  trace(EntityState::kReady);
  TracePayload load;
  load.type = TraceType::kLoadInformation;
  load.entity_id = "owner-1";
  load.load = LoadInfo{0.5, 0.25, 3};
  emitter.trace(signing(), "owner-1", load);
  trace(EntityState::kRecovering);
  EXPECT_EQ(published.size(), 2u) << "each cut publishes at once";
  net.run_until_idle();
  EXPECT_EQ(summaries(),
            (std::vector<std::string>{"StateTransitions[READY]",
                                      "Load[LOAD_INFORMATION]",
                                      "StateTransitions[RECOVERING]"}));
  for (const Published& p : published) EXPECT_FALSE(p.batch);
}

TEST_F(TraceBatchEmitterTest, HeartbeatFoldCutsTheBatch) {
  trace(EntityState::kReady);
  fold_one_heartbeat();
  trace(EntityState::kRecovering);
  net.run_until_idle();
  EXPECT_EQ(summaries(),
            (std::vector<std::string>{"StateTransitions[READY]", "Digest",
                                      "StateTransitions[RECOVERING]"}));
}

TEST_F(TraceBatchEmitterTest, PendingDigestFlushesBeforeTheBatchOpens) {
  fold_one_heartbeat();
  trace(EntityState::kReady);
  trace(EntityState::kRecovering);
  net.run_until_idle();
  EXPECT_EQ(summaries(),
            (std::vector<std::string>{"Digest",
                                      "StateTransitions[READY,RECOVERING]"}));
}

TEST_F(TraceBatchEmitterTest, FlushPublishesTheOpenBatchAtOnce) {
  trace(EntityState::kReady);
  trace(EntityState::kRecovering);
  emitter.flush("owner-1");
  EXPECT_EQ(summaries(), (std::vector<std::string>{
                             "StateTransitions[READY,RECOVERING]"}));
  net.run_until_idle();
  EXPECT_EQ(published.size(), 1u);
}

TEST_F(TraceBatchEmitterTest, GaugeProbeCutsTheBatch) {
  trace(EntityState::kReady);
  TracePayload gauge;
  gauge.type = TraceType::kGaugeInterest;
  gauge.entity_id = "owner-1";
  emitter.publish_raw(signing(), "owner-1", tt::gauge_interest(trace_topic),
                      gauge.serialize());
  trace(EntityState::kRecovering);
  net.run_until_idle();
  EXPECT_EQ(summaries(),
            (std::vector<std::string>{"StateTransitions[READY]",
                                      "Interest[GAUGE_INTEREST]",
                                      "StateTransitions[RECOVERING]"}));
}

// The service cuts before a session's token, delegate key or trace key
// changes: each batch is signed with the material it opened under.
TEST_F(TraceBatchEmitterTest, CutKeepsEachBatchOnItsOwnSigningMaterial) {
  trace(EntityState::kReady);
  trace(EntityState::kRecovering);
  emitter.cut("owner-1");
  const AuthorizationToken old_token = token;
  delegate = crypto::rsa_generate(rng, kTestKeyBits);
  token = AuthorizationToken::create(ad, delegate.public_key,
                                     TokenRights::kPublish, 0, 600 * kSecond,
                                     owner.keys.private_key);
  trace(EntityState::kShutdown);
  net.run_until_idle();
  ASSERT_EQ(summaries(),
            (std::vector<std::string>{"StateTransitions[READY,RECOVERING]",
                                      "StateTransitions[SHUTDOWN]"}));
  EXPECT_EQ(published[0].message.auth_token, old_token.serialize());
  EXPECT_TRUE(old_token.verify_delegate_signature(
      published[0].message.signable_bytes(), published[0].message.signature));
  EXPECT_EQ(published[1].message.auth_token, token.serialize());
  EXPECT_TRUE(token.verify_delegate_signature(
      published[1].message.signable_bytes(), published[1].message.signature));
}

TEST_F(TraceBatchEmitterTest, CapPlusOneTracesSplitIntoTwoMessages) {
  const EntityState cycle[] = {EntityState::kReady, EntityState::kRecovering};
  for (std::size_t i = 0; i <= kTraceBatchMax; ++i) {
    trace(cycle[i % 2], "e-" + std::to_string(i));
  }
  EXPECT_EQ(published.size(), 1u) << "the full batch is cut by the next trace";
  net.run_until_idle();
  ASSERT_EQ(published.size(), 2u);
  EXPECT_TRUE(published[0].batch);
  EXPECT_EQ(published[0].traces.size(), kTraceBatchMax);
  EXPECT_FALSE(published[1].batch) << "the remainder is a lone trace";
  std::vector<std::string> order;
  for (const Published& p : published) {
    for (const TracePayload& t : p.traces) order.push_back(t.entity_id);
  }
  ASSERT_EQ(order.size(), kTraceBatchMax + 1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], "e-" + std::to_string(i));
  }
  EXPECT_EQ(emitter.stats().traces_published, 2u);
  EXPECT_EQ(emitter.stats().trace_entries, kTraceBatchMax + 1);
}

// --- the deployed path ------------------------------------------------------

/// Every trace the tracker's handler saw, with the message it rode in.
struct Seen {
  TracePayload payload;
  pubsub::Message message;
};

Tracker::TraceHandler record_into(std::vector<Seen>* out) {
  return [out](const TracePayload& p, const pubsub::Message& m) {
    out->push_back({p, m});
  };
}

std::vector<std::string> type_names(const std::vector<Seen>& seen) {
  std::vector<std::string> out;
  for (const Seen& s : seen) {
    out.emplace_back(trace_type_name(s.payload.type));
  }
  return out;
}

std::size_t distinct_messages(const std::vector<Seen>& seen) {
  std::set<std::uint64_t> sequences;
  for (const Seen& s : seen) sequences.insert(s.message.sequence);
  return sequences.size();
}

/// SHA-256 over the wire encoding of the first READY trace message a
/// tracker receives in a seeded one-broker deployment.
std::string lone_trace_sha256(bool secure) {
  TracingConfig config = TracingHarness::fast_config();
  config.secure_traces = secure;
  TracingHarness h(1, config);
  auto entity = h.make_entity("svc-golden");
  EXPECT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("tracker-golden");
  std::optional<pubsub::Message> captured;
  EXPECT_TRUE(h.track(*tracker, "svc-golden", kCatStateTransitions,
                      [&](const TracePayload& p, const pubsub::Message& m) {
                        if (p.type == TraceType::kReady && !captured) {
                          captured = m;
                        }
                      })
                  .is_ok());
  h.net.run_for(100 * kMillisecond);
  entity->set_state(EntityState::kReady);
  h.net.run_for(100 * kMillisecond);
  if (!captured) return "no READY trace";
  return hex_encode(
      crypto::Sha256::digest(pubsub::encode_publish_frame(*captured)));
}

// A pass with one trace publishes the exact bytes unbatched emission did:
// both digests were taken from the emitter that signed every trace inline,
// in the same deployment.
TEST(TraceBatchTest, LoneTraceIsByteIdenticalToUnbatchedEmission) {
  EXPECT_EQ(lone_trace_sha256(/*secure=*/false),
            "b5c891358fea2153bf84e0031588dddd6e1955038514846128c1b1398fd7a2f5");
  EXPECT_EQ(lone_trace_sha256(/*secure=*/true),
            "98d9ded33de749e441474df5fb232c290bf084db9099e63c896565629b3b5bd8");
}

/// One entity on broker 0, tracked from the last broker.
struct DeployedFixture {
  explicit DeployedFixture(std::size_t brokers,
                           TracingConfig config = TracingHarness::fast_config())
      : h(brokers, config) {
    entity = h.make_entity("svc");
    EXPECT_TRUE(h.start_tracing(*entity).is_ok());
    tracker = h.make_tracker("tracker", brokers - 1);
  }

  void track(std::uint8_t categories) {
    EXPECT_TRUE(
        h.track(*tracker, "svc", categories, record_into(&seen)).is_ok());
    h.net.run_for(50 * kMillisecond);
    seen.clear();
  }

  [[nodiscard]] const TraceEmitter::Stats& emitted() const {
    return h.services[0]->emitter_stats();
  }

  TracingHarness h;
  std::unique_ptr<TracedEntity> entity;
  std::unique_ptr<Tracker> tracker;
  std::vector<Seen> seen;
};

TEST(TraceBatchTest, StateReportsAtOneInstantShareOneSignedMessage) {
  DeployedFixture f(/*brokers=*/3);
  persist::TraceLedger ledger;
  f.h.services[0]->set_trace_ledger(&ledger);
  f.track(kCatStateTransitions);
  const TraceEmitter::Stats before = f.emitted();

  const std::vector<EntityState> states = {
      EntityState::kReady, EntityState::kRecovering, EntityState::kReady,
      EntityState::kShutdown, EntityState::kInitializing};
  for (const EntityState s : states) f.entity->set_state(s);
  f.h.net.run_for(50 * kMillisecond);

  ASSERT_EQ(f.seen.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    ASSERT_TRUE(f.seen[i].payload.state.has_value());
    EXPECT_EQ(*f.seen[i].payload.state, states[i]) << i;
  }
  EXPECT_EQ(distinct_messages(f.seen), 1u);
  EXPECT_EQ(f.emitted().traces_published - before.traces_published, 1u);
  EXPECT_EQ(f.emitted().trace_entries - before.trace_entries, states.size());
  EXPECT_EQ(f.tracker->stats().traces_rejected, 0u);

  // One ledger record, over the pre-encryption batch body.
  ASSERT_EQ(ledger.total_records(), 1u);
  const std::string topic = f.seen[0].message.topic;
  ASSERT_EQ(ledger.records(topic).size(), 1u);
  const persist::LedgerRecord& r = ledger.records(topic).front();
  EXPECT_EQ(r.trace_type, static_cast<std::uint8_t>(TraceType::kBatch));
  EXPECT_EQ(r.entity_id, "svc");
  EXPECT_EQ(r.signature, f.seen[0].message.signature);
  EXPECT_EQ(decode_trace_batch(r.payload).size(), states.size());
  EXPECT_TRUE(persist::LedgerAuditor::verify_all(ledger).empty());
  f.h.services[0]->set_trace_ledger(nullptr);
}

TEST(TraceBatchTest, LoadReportBetweenStateChangesKeepsItsPlace) {
  DeployedFixture f(/*brokers=*/2);
  f.track(kCatStateTransitions | kCatLoad);
  const TraceEmitter::Stats before = f.emitted();

  f.entity->set_state(EntityState::kReady);
  f.entity->report_load(LoadInfo{0.5, 0.25, 3});
  f.entity->set_state(EntityState::kRecovering);
  f.entity->set_state(EntityState::kReady);
  f.h.net.run_for(50 * kMillisecond);

  EXPECT_EQ(type_names(f.seen),
            (std::vector<std::string>{"READY", "LOAD_INFORMATION",
                                      "RECOVERING", "READY"}));
  EXPECT_EQ(distinct_messages(f.seen), 3u);
  EXPECT_EQ(f.emitted().traces_published - before.traces_published, 3u);
}

// A renewal delivers a token and, for a secure session, then re-delivers
// the trace key; each is a cut. Plain sessions isolate the token's cut.
TEST(TraceBatchTest, TokenRenewalCutsTheBatch) {
  for (const bool secure : {false, true}) {
    SCOPED_TRACE(secure ? "secure" : "plain");
    TracingConfig config = TracingHarness::fast_config();
    config.secure_traces = secure;
    DeployedFixture f(/*brokers=*/2, config);
    f.track(kCatStateTransitions);
    f.h.net.run_for(100 * kMillisecond);  // a sealed trace key arrives
    f.seen.clear();

    f.entity->set_state(EntityState::kReady);
    f.entity->set_state(EntityState::kRecovering);
    f.entity->renew_token();
    f.entity->set_state(EntityState::kShutdown);
    f.h.net.run_for(100 * kMillisecond);

    ASSERT_EQ(type_names(f.seen),
              (std::vector<std::string>{"READY", "RECOVERING", "SHUTDOWN"}));
    EXPECT_EQ(f.seen[0].message.sequence, f.seen[1].message.sequence);
    EXPECT_NE(f.seen[1].message.sequence, f.seen[2].message.sequence);
    // The trace after the renewal carries the new token.
    EXPECT_NE(f.seen[1].message.auth_token, f.seen[2].message.auth_token);
    EXPECT_EQ(f.seen[2].message.encrypted, secure);
    EXPECT_EQ(f.tracker->stats().traces_rejected, 0u);
    EXPECT_EQ(f.tracker->stats().undecryptable, 0u);
  }
}

TEST(TraceBatchTest, SilentModeTeardownPublishesTheOpenBatchFirst) {
  DeployedFixture f(/*brokers=*/2);
  f.track(kCatStateTransitions | kCatChangeNotifications);
  const TraceEmitter::Stats before = f.emitted();

  f.entity->set_state(EntityState::kReady);
  f.entity->set_state(EntityState::kShutdown);
  f.entity->stop_tracing();
  f.h.net.run_for(50 * kMillisecond);

  EXPECT_EQ(type_names(f.seen),
            (std::vector<std::string>{"READY", "SHUTDOWN",
                                      "REVERTING_TO_SILENT_MODE"}));
  EXPECT_EQ(distinct_messages(f.seen), 2u);
  EXPECT_EQ(f.emitted().traces_published - before.traces_published, 2u);
  EXPECT_EQ(f.emitted().trace_entries - before.trace_entries, 3u);
  EXPECT_FALSE(f.h.services[0]->has_session_for("svc"));
}

TEST(TraceBatchTest, WholeRosterSuspicionSplitsByTheCap) {
  constexpr std::size_t kMembers = 512;
  TracingHarness h(1);
  auto host = std::make_unique<EntityHost>(
      h.net, h.make_identity("host-0"), h.anchors,
      TracingHarness::fast_config(), h.rng.next_u64());
  host->attach_tdn(h.tdn->node(), TracingHarness::link());
  host->connect_broker(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);
  std::vector<std::string> roster;
  for (std::size_t i = 0; i < kMembers; ++i) {
    roster.push_back("member-" + std::to_string(i));
  }
  bool registered = false;
  host->register_entities({}, roster, [&](const Status& s) {
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    registered = true;
  });
  for (int i = 0; i < 100 && !registered; ++i) {
    h.net.run_for(50 * kMillisecond);
  }
  ASSERT_TRUE(registered);

  auto tracker = h.make_tracker("tracker");
  std::vector<Seen> seen;
  ASSERT_TRUE(h.track(*tracker, "host-0", kCatChangeNotifications,
                      record_into(&seen))
                  .is_ok());
  h.net.run_for(200 * kMillisecond);
  ASSERT_TRUE(seen.empty());

  host->set_responsive(false);  // every member misses the same pings
  std::vector<Seen> suspicions;
  for (int i = 0; i < 40 && suspicions.size() < kMembers; ++i) {
    h.net.run_for(50 * kMillisecond);
    suspicions.clear();
    for (const Seen& s : seen) {
      if (s.payload.type == TraceType::kFailureSuspicion) {
        suspicions.push_back(s);
      }
    }
  }
  ASSERT_EQ(suspicions.size(), kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    EXPECT_EQ(suspicions[i].payload.entity_id, roster[i]) << i;
  }
  EXPECT_EQ(distinct_messages(suspicions),
            (kMembers + kTraceBatchMax - 1) / kTraceBatchMax);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);
}

// --- adversarial -------------------------------------------------------------

TEST(TraceBatchAdversarialTest, FlippedByteInABatchIsRejectedAtTheFirstRelay) {
  DeployedFixture f(/*brokers=*/3);
  f.track(kCatStateTransitions);
  f.entity->set_state(EntityState::kReady);
  f.entity->set_state(EntityState::kRecovering);
  f.entity->set_state(EntityState::kShutdown);
  f.h.net.run_for(50 * kMillisecond);
  ASSERT_EQ(f.seen.size(), 3u);
  ASSERT_TRUE(is_trace_batch(f.seen[0].message.payload));

  pubsub::Message tampered = f.seen[0].message;
  tampered.payload[tampered.payload.size() / 2] ^= 0x01;
  const std::size_t seen_before = f.seen.size();
  const TraceFilterStats relay_before = f.h.filters[1].stats();
  const std::uint64_t discarded_before = f.h.brokers[1]->stats().discarded;
  const std::uint64_t received_before = f.tracker->stats().traces_received;

  f.h.brokers[0]->publish_from_broker(tampered);
  f.h.net.run_for(50 * kMillisecond);

  EXPECT_EQ(f.h.filters[1].stats().rejected - relay_before.rejected, 1u);
  EXPECT_EQ(f.h.brokers[1]->stats().discarded - discarded_before, 1u)
      << "the rejection is struck against the sending broker";
  EXPECT_EQ(f.seen.size(), seen_before);
  EXPECT_EQ(f.tracker->stats().traces_received, received_before);
}

TEST(TraceBatchAdversarialTest, TrackerRejectsASignedMalformedBatchOnce) {
  TracingHarness h(1);
  auto entity = h.make_entity("svc");
  Rng key_rng(404);
  const crypto::RsaKeyPair delegate = crypto::rsa_generate(key_rng,
                                                           kTestKeyBits);
  entity->set_delegate_keys(delegate);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("tracker");
  std::vector<Seen> seen;
  ASSERT_TRUE(h.track(*tracker, "svc", kCatStateTransitions,
                      record_into(&seen))
                  .is_ok());
  entity->set_state(EntityState::kReady);
  h.net.run_for(50 * kMillisecond);
  ASSERT_EQ(seen.size(), 1u);
  const pubsub::Message genuine = seen[0].message;
  seen.clear();

  std::uint64_t sequence = genuine.sequence + 1000;
  // Publishes `body` signed by the session's real delegate key under its
  // real token, as only the hosting broker could.
  auto publish_signed_body = [&](Bytes body) {
    pubsub::Message m;
    m.topic = genuine.topic;
    m.payload = std::move(body);
    m.publisher = genuine.publisher;
    m.sequence = ++sequence;
    m.timestamp = h.net.now();
    m.auth_token = genuine.auth_token;
    m.signature = delegate.private_key.sign(m.signable_bytes());
    h.brokers[0]->publish_from_broker(std::move(m));
    h.net.run_for(20 * kMillisecond);
  };

  const Bytes ready = state_payload(EntityState::kReady, "svc").serialize();
  const Bytes shutdown =
      state_payload(EntityState::kShutdown, "svc").serialize();
  // Control: a well-formed batch signed the same way is delivered whole.
  publish_signed_body(encode_trace_batch({ready, shutdown}));
  ASSERT_EQ(type_names(seen),
            (std::vector<std::string>{"READY", "SHUTDOWN"}));
  seen.clear();

  TracePayload gauge;
  gauge.type = TraceType::kGaugeInterest;
  gauge.entity_id = "svc";
  const std::vector<std::pair<std::string, Bytes>> malformed = {
      {"count 0", raw_batch(0, {})},
      {"count 1", raw_batch(1, {ready})},
      {"count the bytes cannot hold", raw_batch(0xFFFFFFFFu, {ready, ready})},
      {"nested batch",
       raw_batch(2, {ready, encode_trace_batch({ready, shutdown})})},
      {"GAUGE_INTEREST entry", raw_batch(2, {ready, gauge.serialize()})},
  };
  for (const auto& [name, body] : malformed) {
    const TrackerStats before = tracker->stats();
    publish_signed_body(body);
    EXPECT_EQ(tracker->stats().traces_rejected - before.traces_rejected, 1u)
        << name;
    EXPECT_EQ(tracker->stats().traces_received, before.traces_received)
        << name;
    EXPECT_TRUE(seen.empty()) << name;
  }
}

TEST(TraceBatchAdversarialTest, DestroyedServiceNeverRunsItsQueuedFlush) {
  DeployedFixture f(/*brokers=*/1);
  f.track(kCatStateTransitions);
  const std::uint64_t traced = f.h.services[0]->stats().traces_published;
  f.entity->set_state(EntityState::kReady);
  // Step until the report has been turned into a batched trace; the
  // pass's flush task is queued behind it.
  while (f.h.services[0]->stats().traces_published == traced) {
    ASSERT_TRUE(f.h.net.step());
  }
  const std::uint64_t published = f.h.brokers[0]->stats().published;
  f.h.services[0].reset();
  f.h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(f.h.brokers[0]->stats().published, published);
  EXPECT_TRUE(f.seen.empty());
}

}  // namespace
}  // namespace et::tracing
