// EntityHost end-to-end (DESIGN.md §14): one batch registration covers a
// whole roster, one ping round carries the roster's liveness, coalesced
// digests expand back to exact per-entity semantics at the tracker.
#include "src/tracing/entity_host.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/pubsub/constrained_topic.h"
#include "src/tracing/trace_digest.h"
#include "src/tracing/trace_emitter.h"
#include "src/transport/fault_injector.h"
#include "tests/tracing/harness.h"

namespace et::tracing {
namespace {

using testing::Observed;
using testing::record_observations;
using testing::TracingHarness;

std::vector<std::string> member_ids(std::size_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back("member-" + std::to_string(i));
  }
  return ids;
}

TracingConfig digest_config() {
  TracingConfig c = TracingHarness::fast_config();
  c.digest_interval = 100 * kMillisecond;
  c.timer_wheel_tick = 20 * kMillisecond;
  return c;
}

/// `identity`'s host with `members` members, registered at the first
/// broker.
std::unique_ptr<EntityHost> register_host(TracingHarness& h,
                                          std::size_t members,
                                          const TracingConfig& config,
                                          crypto::Identity identity) {
  auto host = std::make_unique<EntityHost>(h.net, std::move(identity),
                                           h.anchors, config,
                                           h.rng.next_u64());
  host->attach_tdn(h.tdn->node(), TracingHarness::link());
  host->connect_broker(h.brokers.front()->node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);

  Status reg = internal_error("callback never ran");
  bool done = false;
  host->register_entities({}, member_ids(members), [&](const Status& s) {
    reg = s;
    done = true;
  });
  for (int i = 0; i < 100 && !done; ++i) h.net.run_for(50 * kMillisecond);
  EXPECT_TRUE(reg.is_ok()) << reg.to_string();
  return host;
}

/// "host-0" with `members` members, registered at the first broker.
std::unique_ptr<EntityHost> register_host(TracingHarness& h,
                                          std::size_t members,
                                          const TracingConfig& config) {
  return register_host(h, members, config, h.make_identity("host-0"));
}

struct HostFixture {
  explicit HostFixture(std::size_t brokers, std::size_t members,
                       TracingConfig config = digest_config())
      : h(brokers, config), host(register_host(h, members, config)) {}

  TracingHarness h;
  std::unique_ptr<EntityHost> host;
};

TEST(EntityHostTest, BatchRegistrationIsOneRoundTripPerRoster) {
  HostFixture f(/*brokers=*/1, /*members=*/16);
  EXPECT_TRUE(f.host->tracing_active());
  EXPECT_EQ(f.host->entity_count(), 16u);
  EXPECT_EQ(f.h.services[0]->stats().batch_registrations, 1u);
  EXPECT_EQ(f.h.services[0]->stats().registrations, 1u);  // one session
  EXPECT_EQ(f.h.services[0]->roster_size(), 16u);
  // Every member resolves to the (single) host session.
  for (const std::string& id : member_ids(16)) {
    EXPECT_TRUE(f.h.services[0]->has_session_for(id)) << id;
  }
}

TEST(EntityHostTest, DigestsExpandToPerEntityHeartbeats) {
  HostFixture f(/*brokers=*/3, /*members=*/16);
  auto tracker = f.h.make_tracker("tracker-0", /*broker_index=*/2);

  std::map<std::string, int> heartbeats;
  Status st = internal_error("never");
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kAllsWell) ++heartbeats[p.entity_id];
      },
      [&](const Status& s) {
        st = s;
        done = true;
      });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  f.h.net.run_for(2 * kSecond);
  // The tracker observes per-entity heartbeats for EVERY member even
  // though the wire carried coalesced digests.
  for (const std::string& id : member_ids(16)) {
    EXPECT_GE(heartbeats[id], 3) << id;
  }
  EXPECT_GT(tracker->stats().digests_received, 0u);
  EXPECT_GT(tracker->stats().digest_entries_expanded, 0u);
  // Coalescing actually happened on the broker side: far fewer digest
  // messages than observations carried.
  const TraceEmitter::Stats& es = f.h.services[0]->emitter_stats();
  EXPECT_GT(es.digests_published, 0u);
  EXPECT_GT(es.digest_entries, 4 * es.digests_published);
}

TEST(EntityHostTest, SingleUnresponsiveMemberEscalatesAlone) {
  HostFixture f(/*brokers=*/1, /*members=*/8);
  auto tracker = f.h.make_tracker("tracker-0");

  std::set<std::string> suspected;
  std::map<std::string, int> recovered;
  Status st = internal_error("never");
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kFailureSuspicion ||
            p.type == TraceType::kFailed) {
          suspected.insert(p.entity_id);
        }
        if (p.type == TraceType::kAllsWell && !p.detail.empty()) {
          ++recovered[p.entity_id];
        }
      },
      [&](const Status& s) {
        st = s;
        done = true;
      });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(st.is_ok()) << st.to_string();

  f.host->set_responsive("member-3", false);
  f.h.net.run_for(3 * kSecond);
  // Only the dead member escalates; the host and its 7 live members keep
  // reporting healthy through the same ping/digest stream.
  EXPECT_EQ(suspected, std::set<std::string>{"member-3"});
  EXPECT_TRUE(f.h.services[0]->session_view("member-3").suspected ||
              f.h.services[0]->session_view("member-3").failed);
  EXPECT_FALSE(f.h.services[0]->session_view("member-1").suspected);

  // Recovery travels urgently (detail-carrying ALLS_WELL, not digested).
  f.host->set_responsive("member-3", true);
  f.h.net.run_for(1 * kSecond);
  EXPECT_GE(recovered["member-3"], 1);
  EXPECT_FALSE(f.h.services[0]->session_view("member-3").suspected);
  EXPECT_FALSE(f.h.services[0]->session_view("member-3").failed);
}

TEST(EntityHostTest, TimerStateIsPerHostNotPerEntity) {
  HostFixture f(/*brokers=*/1, /*members=*/64);
  f.h.net.run_for(1 * kSecond);
  // One session: ping + metrics + gauge (+ one digest flush) logical
  // timers — versus 64 entities.
  const TimerWheel::Stats ws = f.h.services[0]->timer_stats();
  EXPECT_LE(ws.pending, 4u);
  // A nonzero tick multiplexes them onto at most one armed backend timer.
  EXPECT_LE(ws.armed_now, 1u);
  // The arena actually holds the roster compactly.
  EXPECT_EQ(f.h.services[0]->roster_size(), 64u);
  EXPECT_GT(f.h.services[0]->roster_bytes(), 0u);
}

TEST(EntityHostTest, HostDisconnectFansOutPerMemberDisconnects) {
  HostFixture f(/*brokers=*/1, /*members=*/8);
  auto tracker = f.h.make_tracker("tracker-0");

  std::set<std::string> disconnected;
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kDisconnect) {
          disconnected.insert(p.entity_id);
        }
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);

  f.host->disconnect();
  f.h.net.run_for(2 * kSecond);
  // The broker notices the severed link and announces every member.
  const std::vector<std::string> roster = member_ids(8);
  EXPECT_EQ(disconnected, std::set<std::string>(roster.begin(), roster.end()));
  EXPECT_FALSE(f.h.services[0]->has_session_for("host-0"));
  EXPECT_EQ(f.h.services[0]->roster_size(), 0u);
}

TEST(EntityHostTest, BrokerSilenceTriggersBatchFailover) {
  HostFixture f(/*brokers=*/2, /*members=*/8,
                TracingHarness::failover_config(digest_config()));
  f.h.register_brokers();
  ASSERT_TRUE(f.host->tracing_active());
  ASSERT_EQ(f.host->stats().registrations, 1u);

  // Kill the hosting broker: pings stop, the silence watchdog fires, and
  // ONE batch re-registration re-homes the entire roster — mirroring
  // TracedEntity's failover ladder at O(1)-per-host cost.
  f.h.net.faults().crash(f.h.brokers[0]->node());
  for (int i = 0; i < 200 && f.host->stats().failovers == 0; ++i) {
    f.h.net.run_for(100 * kMillisecond);
  }
  EXPECT_EQ(f.host->stats().failovers, 1u);
  EXPECT_GE(f.host->stats().failover_attempts, 1u);
  EXPECT_FALSE(f.host->failing_over());
  EXPECT_TRUE(f.host->tracing_active());
  EXPECT_EQ(f.host->client().broker(), f.h.brokers[1]->node());
  EXPECT_EQ(f.host->stats().registrations, 2u);
  // The replacement broker serves the whole roster under the new session.
  EXPECT_EQ(f.h.services[1]->roster_size(), 8u);
  for (const std::string& id : member_ids(8)) {
    EXPECT_TRUE(f.h.services[1]->has_session_for(id)) << id;
  }
  // Pings flow again: the host answers its new broker.
  const std::uint64_t answered = f.host->stats().pings_answered;
  f.h.net.run_for(1 * kSecond);
  EXPECT_GT(f.host->stats().pings_answered, answered);
}

TEST(EntityHostTest, PassthroughConfigStillDeliversPerEntity) {
  // digest_interval == 0: the emitter publishes per-entity messages, no
  // digests anywhere — the batch API works without coalescing.
  TracingConfig c = TracingHarness::fast_config();
  HostFixture f(/*brokers=*/1, /*members=*/4, c);
  auto tracker = f.h.make_tracker("tracker-0");

  std::map<std::string, int> heartbeats;
  bool done = false;
  tracker->track_host(
      "host-0", kCatAll,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kAllsWell) ++heartbeats[p.entity_id];
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);

  f.h.net.run_for(1 * kSecond);
  for (const std::string& id : member_ids(4)) {
    EXPECT_GE(heartbeats[id], 2) << id;
  }
  EXPECT_EQ(tracker->stats().digests_received, 0u);
  EXPECT_EQ(f.h.services[0]->emitter_stats().digests_published, 0u);
}

TEST(EntityHostTest, TokenRenewalsAreNotRegistrations) {
  TracingConfig c = digest_config();
  c.token_lifetime = 2 * kSecond;  // renewals at 1.5 s, 3 s and 4.5 s
  HostFixture f(/*brokers=*/1, /*members=*/4, c);
  f.h.net.run_for(5 * kSecond);
  EXPECT_TRUE(f.host->tracing_active());
  EXPECT_EQ(f.host->stats().registrations, 1u);
  EXPECT_EQ(f.h.services[0]->stats().registrations, 1u);
}

// The exact observations of the broker's failure ladder for a 3-member
// roster; LifecycleTest pins the same ladders for one TracedEntity.

/// Tracks host-0 on `broker_index`, recording ladder observations.
std::unique_ptr<Tracker> observe_host(HostFixture& f, std::vector<Observed>* seen,
                                      std::size_t broker_index = 0) {
  auto tracker = f.h.make_tracker("observer", broker_index);
  bool done = false;
  tracker->track_host("host-0", kCatChangeNotifications | kCatAllUpdates,
                      record_observations(seen),
                      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  EXPECT_TRUE(done);
  f.h.net.run_for(300 * kMillisecond);
  return tracker;
}

TEST(EntityHostTest, MemberLadderSuspectsFailsThenRecovers) {
  HostFixture f(/*brokers=*/1, /*members=*/3);
  std::vector<Observed> seen;
  auto tracker = observe_host(f, &seen);

  f.host->set_responsive("member-1", false);
  f.h.net.run_for(3 * kSecond);
  f.host->set_responsive("member-1", true);
  f.h.net.run_for(1 * kSecond);
  EXPECT_EQ(seen,
            (std::vector<Observed>{
                {TraceType::kFailureSuspicion, "member-1",
                 "3 consecutive pings unanswered"},
                {TraceType::kFailed, "member-1",
                 "no ping response after 6 attempts"},
                {TraceType::kAllsWell, "member-1",
                 "entity responsive again"}}));
}

TEST(EntityHostTest, SilentMemberOfALiveHostIsNeverPresumedDeparted) {
  TracingConfig c = digest_config();
  c.disconnect_misses = 9;
  HostFixture f(/*brokers=*/1, /*members=*/3, c);
  std::vector<Observed> seen;
  auto tracker = observe_host(f, &seen);

  // The host keeps answering, so its session stays up; the member stays
  // FAILED and keeps being probed.
  f.host->set_responsive("member-1", false);
  f.h.net.run_for(5 * kSecond);
  EXPECT_EQ(seen, (std::vector<Observed>{
                      {TraceType::kFailureSuspicion, "member-1",
                       "3 consecutive pings unanswered"},
                      {TraceType::kFailed, "member-1",
                       "no ping response after 6 attempts"}}));
  EXPECT_TRUE(f.h.services[0]->has_session_for("member-1"));
  EXPECT_EQ(f.h.services[0]->stats().disconnects, 0u);
}

TEST(EntityHostTest, SilentHostIsPresumedDepartedPerMember) {
  TracingConfig c = digest_config();
  c.disconnect_misses = 9;
  HostFixture f(/*brokers=*/1, /*members=*/3, c);
  std::vector<Observed> seen;
  auto tracker = observe_host(f, &seen);

  f.host->set_responsive(false);  // the whole host hangs
  f.h.net.run_for(5 * kSecond);
  const std::string departed =
      "presumed departed: 9 consecutive pings unanswered";
  EXPECT_EQ(seen, (std::vector<Observed>{
                      {TraceType::kFailureSuspicion, "member-0",
                       "3 consecutive pings unanswered"},
                      {TraceType::kFailureSuspicion, "member-1",
                       "3 consecutive pings unanswered"},
                      {TraceType::kFailureSuspicion, "member-2",
                       "3 consecutive pings unanswered"},
                      {TraceType::kFailed, "member-0",
                       "no ping response after 6 attempts"},
                      {TraceType::kFailed, "member-1",
                       "no ping response after 6 attempts"},
                      {TraceType::kFailed, "member-2",
                       "no ping response after 6 attempts"},
                      {TraceType::kDisconnect, "member-0", departed},
                      {TraceType::kDisconnect, "member-1", departed},
                      {TraceType::kDisconnect, "member-2", departed}}));
  EXPECT_FALSE(f.h.services[0]->has_session_for("host-0"));
  EXPECT_EQ(f.h.services[0]->stats().disconnects, 1u);
}

TEST(EntityHostTest, HostLinkLossIsOneDisconnectPerMember) {
  HostFixture f(/*brokers=*/1, /*members=*/3);
  std::vector<Observed> seen;
  auto tracker = observe_host(f, &seen);

  f.host->disconnect();
  f.h.net.run_for(2 * kSecond);
  EXPECT_EQ(seen, (std::vector<Observed>{
                      {TraceType::kDisconnect, "member-0", "client link lost"},
                      {TraceType::kDisconnect, "member-1", "client link lost"},
                      {TraceType::kDisconnect, "member-2",
                       "client link lost"}}));
}

// Pins the ping-response fan-out: which observations a member's answers
// produce, and which the broker counts as suppressed, across a member that
// hangs while nobody tracks the host and recovers once a tracker watches.
TEST(EntityHostTest, UntrackedHangThenTrackedRecoveryIsPinned) {
  HostFixture f(/*brokers=*/1, /*members=*/4);
  f.host->set_responsive("member-2", false);
  f.h.net.run_for(1500 * kMillisecond);  // suspected, then failed, unseen
  std::vector<Observed> seen;
  auto tracker = observe_host(f, &seen);
  f.host->set_responsive("member-2", true);
  f.h.net.run_for(1 * kSecond);

  EXPECT_EQ(seen, (std::vector<Observed>{{TraceType::kAllsWell, "member-2",
                                          "entity responsive again"}}));
  const TracingBrokerStats& s = f.h.services[0]->stats();
  EXPECT_EQ(s.registrations, 1u);
  EXPECT_EQ(s.batch_registrations, 1u);
  EXPECT_EQ(s.rejected_registrations, 0u);
  EXPECT_EQ(s.pings_sent, 29u);
  EXPECT_EQ(s.ping_responses, 28u);
  EXPECT_EQ(s.rejected_session_messages, 0u);
  EXPECT_EQ(s.traces_published, 49u);
  EXPECT_EQ(s.traces_suppressed_no_interest, 59u);
  EXPECT_EQ(s.suspicions, 1u);
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.disconnects, 0u);
  EXPECT_EQ(s.keys_distributed, 0u);
  EXPECT_EQ(s.interest_responses, 5u);
}

// Pins the digests a tracked host's mixed liveness bitmap produces: the
// answering members, in roster order, one entry per member per round.
TEST(EntityHostTest, DigestEntriesFollowAMixedLivenessBitmap) {
  HostFixture f(/*brokers=*/1, /*members=*/6);
  f.host->set_responsive("member-1", false);
  f.host->set_responsive("member-4", false);
  auto tracker = f.h.make_tracker("observer");
  // One line per digest message: its entries' entity ids, in order.
  std::vector<std::string> digests;
  std::uint64_t last_sequence = 0;
  bool done = false;
  tracker->track_host(
      "host-0", kCatAllUpdates,
      [&](const TracePayload& p, const pubsub::Message& m) {
        if (!m.topic.ends_with("/Digest")) return;
        if (digests.empty() || m.sequence != last_sequence) {
          digests.emplace_back();
          last_sequence = m.sequence;
        }
        ASSERT_EQ(p.type, TraceType::kAllsWell);
        digests.back() += p.entity_id.substr(p.entity_id.size() - 1);
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(done);
  f.h.net.run_for(1 * kSecond);

  std::string joined;
  for (const std::string& d : digests) joined += d + "|";
  EXPECT_EQ(joined, "02350235|02350235|02350235|02350235|02350235|");
}

/// One line per digest message, keyed by its sequence number: the last
/// character of each expanded member id, in delivery order.
using DigestLines = std::map<std::uint64_t, std::string>;

Tracker::TraceHandler record_digests(DigestLines* out) {
  return [out](const TracePayload& p, const pubsub::Message& m) {
    if (!m.topic.ends_with("/Digest")) return;
    ASSERT_EQ(p.type, TraceType::kAllsWell);
    (*out)[m.sequence] += p.entity_id.substr(p.entity_id.size() - 1);
  };
}

// Pins the digest boundaries when a round's heartbeats outnumber the
// digest cap: a full digest flushes mid-round and the rest of the round
// opens the next one.
TEST(EntityHostTest, DigestCapSplitsRoundsAtPinnedBoundaries) {
  TracingConfig c = digest_config();
  c.digest_max_entries = 5;
  HostFixture f(/*brokers=*/1, /*members=*/8, c);
  f.host->set_responsive("member-2", false);
  f.host->set_responsive("member-6", false);
  auto tracker = f.h.make_tracker("observer");
  DigestLines digests;
  ASSERT_TRUE(f.h.track(*tracker, "host-0", kCatAllUpdates,
                        record_digests(&digests))
                  .is_ok());
  f.h.net.run_for(1 * kSecond);

  std::string joined;
  for (const auto& [sequence, line] : digests) joined += line + "|";
  EXPECT_EQ(joined,
            "01345|70134|57013|45701|34570|13457|01345|70134|57013|45701|"
            "34570|13457|01345|");
}

// A tracker that joins a running host sees, from its first expanded
// digest on, exactly what a tracker watching from the start sees over
// the same digests.
TEST(EntityHostTest, LateTrackerSeesTheSameDigestSequence) {
  HostFixture f(/*brokers=*/1, /*members=*/6);
  f.host->set_responsive("member-1", false);
  auto early = f.h.make_tracker("early");
  DigestLines early_lines;
  ASSERT_TRUE(f.h.track(*early, "host-0", kCatAllUpdates,
                        record_digests(&early_lines))
                  .is_ok());
  f.h.net.run_for(1 * kSecond);
  auto late = f.h.make_tracker("late");
  DigestLines late_lines;
  ASSERT_TRUE(f.h.track(*late, "host-0", kCatAllUpdates,
                        record_digests(&late_lines))
                  .is_ok());
  f.h.net.run_for(1 * kSecond);
  // Silence the host so every published digest reaches both trackers.
  f.h.net.faults().crash(f.host->client().node());
  f.h.net.run_for(300 * kMillisecond);

  ASSERT_GE(late_lines.size(), 5u);
  const DigestLines tail(early_lines.lower_bound(late_lines.begin()->first),
                         early_lines.end());
  EXPECT_EQ(late_lines, tail);
  for (const auto& [sequence, line] : late_lines) {
    EXPECT_EQ(line.size() % 5, 0u) << line;
    EXPECT_EQ(line.find('1'), std::string::npos) << line;
  }
}

// The host's session is replaced by a re-registration on the same trace
// topic (a failover to the second broker): the tracker's per-digest
// heartbeat sequence carries on under the new session.
TEST(EntityHostTest, SessionReplacementContinuesTheDigestSequence) {
  HostFixture f(/*brokers=*/2, /*members=*/4,
                TracingHarness::failover_config(digest_config()));
  f.h.register_brokers();
  f.host->set_responsive("member-1", false);
  auto tracker = f.h.make_tracker("observer", 1);
  std::vector<std::pair<std::string, std::string>> digests;  // publisher
  std::uint64_t last_sequence = 0;
  std::string last_publisher;
  ASSERT_TRUE(f.h.track(
                   *tracker, "host-0", kCatAllUpdates,
                   [&](const TracePayload& p, const pubsub::Message& m) {
                     if (!m.topic.ends_with("/Digest")) return;
                     if (digests.empty() || m.sequence != last_sequence ||
                         m.publisher != last_publisher) {
                       digests.emplace_back(m.publisher, "");
                       last_sequence = m.sequence;
                       last_publisher = m.publisher;
                     }
                     digests.back().second +=
                         p.entity_id.substr(p.entity_id.size() - 1);
                   })
                  .is_ok());
  f.h.net.run_for(1 * kSecond);
  const Uuid first_session = f.host->session_id();

  f.h.net.faults().crash(f.h.brokers[0]->node());
  for (int i = 0; i < 200 && f.host->stats().failovers == 0; ++i) {
    f.h.net.run_for(100 * kMillisecond);
  }
  ASSERT_EQ(f.host->stats().failovers, 1u);
  EXPECT_NE(f.host->session_id(), first_session);
  f.h.net.run_for(2 * kSecond);

  std::size_t before = 0, after = 0;
  for (const auto& [publisher, line] : digests) {
    EXPECT_EQ(line.size() % 3, 0u) << publisher << ": " << line;
    EXPECT_EQ(line.find('1'), std::string::npos) << publisher << ": " << line;
    (publisher == f.h.brokers[0]->name() ? before : after) += line.size() / 3;
  }
  EXPECT_GE(before, 5u);
  EXPECT_GE(after, 10u);
  // The old session's digests all precede the new session's.
  std::vector<std::string> publishers;
  for (const auto& [publisher, line] : digests) {
    if (publishers.empty() || publishers.back() != publisher) {
      publishers.push_back(publisher);
    }
  }
  EXPECT_EQ(publishers, (std::vector<std::string>{f.h.brokers[0]->name(),
                                                  f.h.brokers[1]->name()}));
}

// The roster-carrying digest is lost on the tracker's link. Without any
// roster change, the tracker skips the first digest it cannot expand,
// asks for the roster once, and the next digest brings it.
TEST(EntityHostTest, LostRosterIsResentOnTheTrackersRequest) {
  TracingConfig c = digest_config();
  c.gauge_interval = 60 * kSecond;  // recovery must not wait for a gauge
  HostFixture f(/*brokers=*/1, /*members=*/5, c);
  auto tracker = f.h.make_tracker("observer");
  std::map<std::string, int> heartbeats;
  ASSERT_TRUE(f.h.track(*tracker, "host-0", kCatAllUpdates,
                        [&](const TracePayload& p, const pubsub::Message&) {
                          ++heartbeats[p.entity_id];
                        })
                  .is_ok());
  // The tracker's interest reached the broker; no digest has been flushed
  // since. Lose the next few, the roster-carrying one among them.
  const transport::NodeId link_a = tracker->client().node();
  const transport::NodeId link_b = f.h.brokers[0]->node();
  f.h.net.faults().blackhole(link_a, link_b);
  f.h.net.run_for(300 * kMillisecond);
  f.h.net.faults().restore(link_a, link_b);
  ASSERT_GE(f.h.services[0]->emitter_stats().digests_published, 2u);
  EXPECT_TRUE(heartbeats.empty());

  for (int i = 0; i < 50 && tracker->stats().digests_without_roster == 0;
       ++i) {
    f.h.net.run_for(5 * kMillisecond);
  }
  ASSERT_EQ(tracker->stats().digests_without_roster, 1u);
  EXPECT_TRUE(heartbeats.empty());
  f.h.net.run_for(2 * c.digest_interval);
  for (const std::string& id : member_ids(5)) {
    EXPECT_GE(heartbeats[id], 1) << id;
  }
  EXPECT_EQ(tracker->stats().digests_without_roster, 1u);
  EXPECT_EQ(f.h.services[0]->stats().registrations, 1u);
}

// A digest the tracker cannot expand exactly is never expanded: one whose
// roster epoch it holds no roster for, and one whose bitmaps are wider
// than the roster of its epoch. Both are signed with a valid delegation,
// so only the roster check stands between them and the handler.
TEST(EntityHostTest, DigestsThatDisagreeWithTheRosterAreNeverExpanded) {
  const TracingConfig config = digest_config();
  TracingHarness h(/*broker_count=*/2, config);
  const crypto::Identity identity = h.make_identity("host-0");
  auto host = register_host(h, /*members=*/4, config, identity);
  auto tracker = h.make_tracker("observer", 1);
  std::size_t heartbeats = 0;
  std::optional<pubsub::Message> last;
  ASSERT_TRUE(h.track(*tracker, "host-0", kCatAllUpdates,
                      [&](const TracePayload&, const pubsub::Message& m) {
                        ++heartbeats;
                        last = m;
                      })
                  .is_ok());
  h.net.run_for(500 * kMillisecond);
  ASSERT_TRUE(last.has_value());
  const TraceDigest seen = TraceDigest::deserialize(last->payload);
  ASSERT_EQ(seen.members, 4u);
  host->set_responsive(false);  // no genuine digests from here on
  h.net.run_for(300 * kMillisecond);
  const std::size_t before = heartbeats;
  const TrackerStats s0 = tracker->stats();

  const crypto::RsaKeyPair delegate = crypto::rsa_generate(h.rng, 512);
  const AuthorizationToken token = AuthorizationToken::create(
      host->advertisement(), delegate.public_key, TokenRights::kPublish,
      h.net.now(), h.net.now() + 60 * kSecond, identity.keys.private_key);
  std::uint64_t sequence = 1u << 20;
  const auto publish = [&](const TraceDigest& d) {
    pubsub::Message m;
    m.topic = last->topic;
    m.payload = d.serialize();
    m.publisher = h.brokers[0]->name();
    m.sequence = ++sequence;
    m.timestamp = h.net.now();
    m.auth_token = token.serialize();
    m.signature = delegate.private_key.sign(m.signable_bytes());
    h.brokers[0]->publish_from_broker(std::move(m));
    h.net.run_for(50 * kMillisecond);
  };
  TraceDigest wider = seen;
  wider.roster.clear();
  wider.members = 12;
  wider.bitmaps = {0xff, 0x0f};
  publish(wider);
  EXPECT_EQ(tracker->stats().traces_rejected, s0.traces_rejected + 1);
  TraceDigest unknown = seen;
  unknown.roster.clear();
  unknown.epoch = seen.epoch + 1 == 0 ? 1 : seen.epoch + 1;
  unknown.bitmaps = {0x0f};
  publish(unknown);
  EXPECT_EQ(tracker->stats().digests_without_roster,
            s0.digests_without_roster + 1);
  EXPECT_EQ(heartbeats, before);

  // The same delegation over the held roster does expand.
  TraceDigest known = seen;
  known.roster.clear();
  known.bitmaps = {0x0f};
  publish(known);
  EXPECT_EQ(heartbeats, before + 4);
}

// An unauthenticated batch registration whose entity count no payload
// could hold is rejected as malformed, and the broker keeps serving.
TEST(EntityHostTest, OversizedBatchCountIsRejectedAsMalformed) {
  const TracingConfig config = digest_config();
  TracingHarness h(/*broker_count=*/1, config);
  const crypto::Identity forger = h.make_identity("forger");
  const discovery::TopicAdvertisement ad(
      Uuid::generate(h.rng), "Availability/Traces/forger", forger.credential,
      {}, 0, 3600 * kSecond, "tdn-0", Bytes{});
  Writer w;
  w.str(forger.id);
  w.bytes(forger.credential.serialize());
  w.bytes(ad.serialize());
  w.u64(/*request_id=*/1);
  w.u32(0xFFFFFFFFu);  // entity count, with no ids behind it

  pubsub::Client client(h.net, forger.id);
  client.connect(h.brokers[0]->node(), TracingHarness::link());
  h.net.run_for(20 * kMillisecond);
  pubsub::Message m;
  m.topic = pubsub::trace_topics::registration_batch();
  m.publisher = forger.id;
  m.payload = std::move(w).take();
  std::uint64_t sequence = 0;
  publish_signed(client, std::move(m), forger.keys.private_key, sequence,
                 h.net.now());
  h.net.run_for(50 * kMillisecond);
  EXPECT_EQ(h.services[0]->stats().rejected_registrations, 1u);
  EXPECT_EQ(h.services[0]->stats().batch_registrations, 0u);

  auto host = register_host(h, /*members=*/4, config);
  EXPECT_TRUE(h.services[0]->has_session_for("host-0"));
  EXPECT_EQ(h.services[0]->stats().batch_registrations, 1u);
}

TEST(EntityHostTest, RegistrationIsServedOnlyByTheHostingBroker) {
  // With summaries, a session held on broker 2 propagates the edge
  // Constrained/Traces/Broker/Subscribe-Only/#, which also covers the
  // registration topics: broker 0 forwards a host's registration toward
  // broker 2. Only broker 0 may mint the session.
  const TracingConfig config = digest_config();
  TracingHarness h(/*broker_count=*/4, config, /*seed=*/1234,
                   /*interest_summary_depth=*/4);
  auto anchor = h.make_entity("anchor", /*broker_index=*/2);
  ASSERT_TRUE(h.start_tracing(*anchor).is_ok());
  h.net.run_for(200 * kMillisecond);
  ASSERT_TRUE(h.services[2]->has_session_for("anchor"));

  auto host = register_host(h, /*members=*/3, config);
  auto tracker = h.make_tracker("observer", /*broker_index=*/3);
  std::vector<Observed> seen;
  ASSERT_TRUE(h.track(*tracker, "host-0",
                      kCatChangeNotifications | kCatAllUpdates,
                      record_observations(&seen))
                  .is_ok());
  h.net.run_for(2 * kSecond);

  EXPECT_TRUE(h.services[0]->has_session_for("host-0"));
  for (std::size_t b = 1; b < h.brokers.size(); ++b) {
    EXPECT_FALSE(h.services[b]->has_session_for("host-0")) << "broker " << b;
    EXPECT_FALSE(h.services[b]->has_session_for("member-0")) << "broker " << b;
    EXPECT_EQ(h.services[b]->stats().batch_registrations, 0u) << "broker " << b;
  }
  EXPECT_TRUE(seen.empty()) << ::testing::PrintToString(seen);
  EXPECT_EQ(host->stats().registrations, 1u);
}

TEST(EntityHostTest, LinkLossDisconnectRetractsSessionInterest) {
  // interest_summary_depth = 0: every pattern propagates verbatim, so a
  // session's leftover service pattern would show up on the neighbour.
  const TracingConfig config = digest_config();
  TracingHarness h(/*broker_count=*/2, config);
  h.net.run_for(50 * kMillisecond);
  const std::size_t hosting_before = h.brokers[0]->interest_edges();
  const std::size_t neighbour_before = h.brokers[1]->interest_edges();

  auto host = register_host(h, /*members=*/3, config);
  ASSERT_TRUE(h.services[0]->has_session_for("host-0"));
  EXPECT_GT(h.brokers[0]->interest_edges(), hosting_before);
  EXPECT_GT(h.brokers[1]->interest_edges(), neighbour_before);

  host->disconnect();
  h.net.run_for(2 * kSecond);
  ASSERT_FALSE(h.services[0]->has_session_for("host-0"));
  EXPECT_EQ(h.brokers[0]->interest_edges(), hosting_before);
  EXPECT_EQ(h.brokers[1]->interest_edges(), neighbour_before);
}

TEST(EntityHostTest, FailoverAnnouncesNoStateTransitions) {
  TracingConfig c = TracingHarness::failover_config(digest_config());
  c.recovery_announce_delay = 700 * kMillisecond;
  HostFixture f(/*brokers=*/2, /*members=*/3, c);
  f.h.register_brokers();
  auto tracker = f.h.make_tracker("observer", 1);
  std::vector<TraceType> states;
  std::map<std::string, int> heartbeats;
  bool done = false;
  tracker->track_host(
      "host-0", kCatStateTransitions | kCatAllUpdates,
      [&](const TracePayload& p, const pubsub::Message&) {
        if (p.type == TraceType::kAllsWell) {
          ++heartbeats[p.entity_id];
        } else {
          states.push_back(p.type);
        }
      },
      [&](const Status&) { done = true; });
  for (int i = 0; i < 100 && !done; ++i) f.h.net.run_for(50 * kMillisecond);
  ASSERT_TRUE(done);

  f.h.net.faults().crash(f.h.brokers[0]->node());
  for (int i = 0; i < 200 && f.host->stats().failovers == 0; ++i) {
    f.h.net.run_for(100 * kMillisecond);
  }
  ASSERT_EQ(f.host->stats().failovers, 1u);
  heartbeats.clear();
  f.h.net.run_for(2 * kSecond);
  // The new session reports every member alive, and nothing else.
  EXPECT_TRUE(states.empty());
  for (const std::string& id : member_ids(3)) {
    EXPECT_GE(heartbeats[id], 3) << id;
  }
}

}  // namespace
}  // namespace et::tracing
