// Lifecycle features: token renewal (§4.3), DISCONNECT traces (Table 1)
// and tracker untrack.
#include <gtest/gtest.h>

#include "src/pubsub/client.h"
#include "src/pubsub/constrained_topic.h"
#include "src/transport/fault_injector.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::Observed;
using testing::record_observations;
using testing::TracingHarness;

TEST(LifecycleTest, TokenRenewalKeepsTracesVerifiable) {
  TracingConfig c = TracingHarness::fast_config();
  c.token_lifetime = 700 * kMillisecond;
  c.auto_renew_tokens = true;  // default, explicit for contrast
  TracingHarness h(1, c);
  auto entity = h.make_entity("svc-renewing");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("long-watcher");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-renewing", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());

  // Run far past several token lifetimes: renewals must keep every trace
  // verifiable with zero rejections.
  h.net.run_for(4 * kSecond);
  EXPECT_GT(received, 20);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);

  const int before = received;
  h.net.run_for(1 * kSecond);
  EXPECT_GT(received, before);  // still flowing after ~7 lifetimes
}

TEST(LifecycleTest, ManualRenewalReplacesDelegation) {
  TracingHarness h;
  auto entity = h.make_entity("svc-manual");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-manual", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  const int before = received;

  entity->renew_token();
  h.net.run_for(1 * kSecond);
  // Traces continue under the new delegation without rejections.
  EXPECT_GT(received, before);
  EXPECT_EQ(tracker->stats().traces_rejected, 0u);
}

TEST(LifecycleTest, AbruptDisconnectPublishesDisconnectTrace) {
  TracingHarness h;
  auto entity = h.make_entity("svc-vanishing");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());

  auto tracker = h.make_tracker("watcher");
  bool disconnect_seen = false;
  bool failed_seen = false;
  ASSERT_TRUE(h.track(*tracker, "svc-vanishing", kCatChangeNotifications,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        if (p.type == TraceType::kDisconnect) {
                          disconnect_seen = true;
                        }
                        if (p.type == TraceType::kFailed) failed_seen = true;
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  entity->disconnect();  // sever the link with no notice
  h.net.run_for(2 * kSecond);

  // The broker notices on its next ping delivery attempt and reports
  // DISCONNECT (not FAILED — the link event preempts the miss counter).
  EXPECT_TRUE(disconnect_seen);
  EXPECT_FALSE(failed_seen);
  EXPECT_FALSE(h.services[0]->has_session_for("svc-vanishing"));
}

TEST(LifecycleTest, DisconnectWithNoTrackersIsQuiet) {
  TracingHarness h;
  auto entity = h.make_entity("svc-unseen");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(200 * kMillisecond);
  entity->disconnect();
  h.net.run_for(2 * kSecond);
  // Session torn down, nothing published (no interest).
  EXPECT_FALSE(h.services[0]->has_session_for("svc-unseen"));
  EXPECT_EQ(h.services[0]->stats().traces_published, 0u);
}

TEST(LifecycleTest, UntrackStopsDeliveryAndInterestExpires) {
  TracingHarness h;
  auto entity = h.make_entity("svc-watched");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("fickle");
  int received = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-watched", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++received;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  EXPECT_GT(received, 0);
  EXPECT_EQ(tracker->tracked_count(), 1u);

  tracker->untrack("svc-watched");
  h.net.run_for(100 * kMillisecond);
  EXPECT_EQ(tracker->tracked_count(), 0u);
  const int at_untrack = received;
  h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(received, at_untrack);  // no further deliveries

  // After TTL gauge rounds with no interest responses, the broker stops
  // publishing entirely.
  h.net.run_for(2 * kSecond);
  const std::uint64_t published = h.services[0]->stats().traces_published;
  h.net.run_for(1 * kSecond);
  EXPECT_EQ(h.services[0]->stats().traces_published, published);
}

TEST(LifecycleTest, UntrackOneOfTwoKeepsTheOther) {
  TracingHarness h;
  auto e1 = h.make_entity("svc-a");
  auto e2 = h.make_entity("svc-b");
  ASSERT_TRUE(h.start_tracing(*e1).is_ok());
  ASSERT_TRUE(h.start_tracing(*e2).is_ok());
  auto tracker = h.make_tracker("dual");
  int a_count = 0, b_count = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-a", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++a_count;
                      })
                  .is_ok());
  ASSERT_TRUE(h.track(*tracker, "svc-b", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++b_count;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  tracker->untrack("svc-a");
  h.net.run_for(100 * kMillisecond);
  const int a_frozen = a_count;
  const int b_so_far = b_count;
  h.net.run_for(500 * kMillisecond);
  EXPECT_EQ(a_count, a_frozen);
  EXPECT_GT(b_count, b_so_far);
  EXPECT_EQ(tracker->tracked_count(), 1u);
}

TEST(LifecycleTest, TokenRenewalsAreNotRegistrations) {
  TracingConfig c = TracingHarness::fast_config();
  c.token_lifetime = 2 * kSecond;  // renewals at 1.5 s, 3 s and 4.5 s
  TracingHarness h(1, c);
  auto entity = h.make_entity("svc-renewing");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  h.net.run_for(5 * kSecond);
  EXPECT_TRUE(entity->tracing_active());
  EXPECT_EQ(entity->stats().registrations, 1u);
  EXPECT_EQ(h.services[0]->stats().registrations, 1u);
}

TEST(LifecycleTest, SingleEntitySessionIsARosterOfOne) {
  TracingHarness h;
  auto entity = h.make_entity("svc-solo");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  EXPECT_EQ(h.services[0]->roster_size(), 1u);
  EXPECT_GT(h.services[0]->roster_bytes(), 0u);

  // The session's flags are its one roster record's.
  entity->set_responsive(false);
  h.net.run_for(3 * kSecond);
  EXPECT_TRUE(h.services[0]->session_view("svc-solo").failed);
  entity->set_responsive(true);
  h.net.run_for(1 * kSecond);
  EXPECT_FALSE(h.services[0]->session_view("svc-solo").suspected);
  EXPECT_FALSE(h.services[0]->session_view("svc-solo").failed);

  entity->stop_tracing();
  h.net.run_for(200 * kMillisecond);
  EXPECT_EQ(h.services[0]->roster_size(), 0u);
}

// The exact observations of the broker's failure ladder for one entity.
// EntityHostTest pins the same ladders for a roster.

constexpr std::uint8_t kLadderCategories =
    kCatChangeNotifications | kCatAllUpdates;

TEST(LifecycleTest, LadderSuspectsFailsThenRecovers) {
  TracingHarness h;
  auto entity = h.make_entity("svc-ladder");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer");
  std::vector<Observed> seen;
  ASSERT_TRUE(h.track(*tracker, "svc-ladder", kLadderCategories,
                      record_observations(&seen))
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  entity->set_responsive(false);
  h.net.run_for(3 * kSecond);
  entity->set_responsive(true);
  h.net.run_for(1 * kSecond);
  EXPECT_EQ(seen,
            (std::vector<Observed>{
                {TraceType::kFailureSuspicion, "svc-ladder",
                 "3 consecutive pings unanswered"},
                {TraceType::kFailed, "svc-ladder",
                 "no ping response after 6 attempts"},
                {TraceType::kAllsWell, "svc-ladder",
                 "entity responsive again"}}));
}

TEST(LifecycleTest, LadderPresumesASilentEntityDeparted) {
  TracingConfig c = TracingHarness::fast_config();
  c.disconnect_misses = 9;
  TracingHarness h(1, c);
  auto entity = h.make_entity("svc-gone");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer");
  std::vector<Observed> seen;
  ASSERT_TRUE(h.track(*tracker, "svc-gone", kLadderCategories,
                      record_observations(&seen))
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  entity->set_responsive(false);
  h.net.run_for(5 * kSecond);
  EXPECT_EQ(seen, (std::vector<Observed>{
                      {TraceType::kFailureSuspicion, "svc-gone",
                       "3 consecutive pings unanswered"},
                      {TraceType::kFailed, "svc-gone",
                       "no ping response after 6 attempts"},
                      {TraceType::kDisconnect, "svc-gone",
                       "presumed departed: 9 consecutive pings unanswered"}}));
  EXPECT_FALSE(h.services[0]->has_session_for("svc-gone"));
  EXPECT_EQ(h.services[0]->stats().disconnects, 1u);
}

TEST(LifecycleTest, LinkLossIsOneDisconnect) {
  TracingHarness h;
  auto entity = h.make_entity("svc-cut");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer");
  std::vector<Observed> seen;
  ASSERT_TRUE(h.track(*tracker, "svc-cut", kLadderCategories,
                      record_observations(&seen))
                  .is_ok());
  h.net.run_for(300 * kMillisecond);

  entity->disconnect();
  h.net.run_for(2 * kSecond);
  EXPECT_EQ(seen, (std::vector<Observed>{{TraceType::kDisconnect, "svc-cut",
                                          "client link lost"}}));
}

TEST(LifecycleTest, FailoverAnnouncesRecoveringThenReady) {
  TracingConfig c =
      TracingHarness::failover_config(TracingHarness::fast_config());
  c.recovery_announce_delay = 700 * kMillisecond;
  TracingHarness h(2, c);
  h.register_brokers();
  auto entity = h.make_entity("svc-mover", 0);
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("observer", 1);
  std::vector<TraceType> states;
  ASSERT_TRUE(h.track(*tracker, "svc-mover", kCatStateTransitions,
                      [&](const TracePayload& p, const pubsub::Message&) {
                        states.push_back(p.type);
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);
  const Uuid before = entity->session_id();

  h.net.faults().crash(h.brokers[0]->node());
  for (int i = 0; i < 200 && entity->stats().failovers == 0; ++i) {
    h.net.run_for(100 * kMillisecond);
  }
  ASSERT_EQ(entity->stats().failovers, 1u);
  EXPECT_NE(entity->session_id(), before);
  // Past the RECOVERING dwell and a gauge round at the new broker.
  h.net.run_for(2 * kSecond);
  EXPECT_EQ(states, (std::vector<TraceType>{TraceType::kRecovering,
                                            TraceType::kReady}));
  EXPECT_EQ(entity->state(), EntityState::kReady);
}

// A TracingBrokerService destroyed while its broker lives leaves no
// handler of its own on the broker: no topic it served reaches one, and
// its client-unreachable listener does nothing. Under ASan, any handler
// run on the freed service is a heap-use-after-free.
TEST(ServiceLifetimeTest, DestroyedServiceLeavesNoHandlerOnItsBroker) {
  namespace tt = pubsub::trace_topics;
  TracingHarness h;
  auto entity = h.make_entity("svc-orphan");
  ASSERT_TRUE(h.start_tracing(*entity).is_ok());
  auto tracker = h.make_tracker("watcher");
  int delivered = 0;
  ASSERT_TRUE(h.track(*tracker, "svc-orphan", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message&) {
                        ++delivered;
                      })
                  .is_ok());
  h.net.run_for(300 * kMillisecond);
  ASSERT_GT(delivered, 0);
  pubsub::Broker& broker = *h.brokers[0];
  const std::vector<std::string> served = {
      tt::registration(), tt::registration_batch(),
      tt::interest_response(entity->trace_topic().to_string())};
  pubsub::Client prober(h.net, "prober");
  prober.connect(broker.node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);
  // While the service lives, each of these topics reaches its handlers
  // (a local-service delivery materializes the message).
  for (const std::string& topic : served) {
    const std::uint64_t materialized = broker.stats().materialized;
    prober.publish(topic, to_bytes("junk"));
    h.net.run_for(20 * kMillisecond);
    EXPECT_GT(broker.stats().materialized, materialized) << topic;
  }

  h.services[0].reset();
  delivered = 0;
  const std::uint64_t materialized = broker.stats().materialized;

  // The entity's session topic: its state report reaches no handler.
  entity->set_state(EntityState::kReady);
  h.net.run_for(500 * kMillisecond);
  // Nor do the registration and interest-response topics.
  for (const std::string& topic : served) {
    prober.publish(topic, to_bytes("junk"));
  }
  h.net.run_for(100 * kMillisecond);
  EXPECT_EQ(broker.stats().materialized, materialized);

  // A client whose link vanished fires the broker's unreachable
  // listeners on the next send to it; the dead service's does nothing.
  pubsub::Client bystander(h.net, "bystander");
  bystander.connect(broker.node(), TracingHarness::link());
  bystander.subscribe("lifetime/probe", [](const pubsub::Message&) {});
  h.net.run_for(20 * kMillisecond);
  h.net.unlink(bystander.node(), broker.node());
  prober.publish("lifetime/probe", to_bytes("ping"));
  h.net.run_for(100 * kMillisecond);

  EXPECT_EQ(broker.stats().materialized, materialized);
  EXPECT_EQ(delivered, 0);
}

}  // namespace
}  // namespace et::tracing
