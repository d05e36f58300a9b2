// Durability chaos tests (ctest -L chaos, DESIGN.md §16): the
// restart-with-state / restart-cold schedule steps and the
// audit-after-partition ledger check, driven through ScenarioDeployment.
//
//   * TDN restart-with-state recovers every advertisement from the
//     snapshot+WAL store and serves discovery WITHOUT re-advertisement;
//     restart-cold loses them (re-advertisement is the only way back);
//   * broker restart-with-state preserves the blacklist and strike
//     counters earned before the crash; cold forgives everything;
//   * a partition/heal run with state restarts passes I1/I2 AND the
//     ledger audit: every chain verifies, no phantom or reordered
//     history on any tracker;
//   * same-seed determinism: timelines, schedule action logs and ledger
//     head digests are byte-identical across independent runs;
//   * a SocketNetwork kill-and-recover smoke: a TDN process dies without
//     checkpointing, a new process over the same state directory serves
//     the topic over real TCP.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/chaos/oracle.h"
#include "src/chaos/scenario.h"
#include "src/chaos/schedule.h"
#include "src/discovery/discovery_client.h"
#include "src/discovery/tdn.h"
#include "src/tracing/trace_digest.h"
#include "src/transport/socket_network.h"
#include "src/transport/virtual_network.h"

namespace et::chaos {
namespace {

using transport::VirtualTimeNetwork;

void start_tracing(VirtualTimeNetwork& net, tracing::TracedEntity& e) {
  Status out = internal_error("callback never ran");
  bool done = false;
  e.start_tracing({}, [&](const Status& s) {
    out = s;
    done = true;
  });
  for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
  ASSERT_TRUE(done && out.is_ok()) << out.to_string();
}

void track(VirtualTimeNetwork& net, tracing::Tracker& t,
           const std::string& entity_id, tracing::Tracker::TraceHandler h) {
  Status out = internal_error("callback never ran");
  bool done = false;
  t.track(entity_id, tracing::kCatAll, std::move(h), [&](const Status& s) {
    out = s;
    done = true;
  });
  for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
  net.run_for(20 * kMillisecond);
  ASSERT_TRUE(done && out.is_ok()) << out.to_string();
}

std::string hex(BytesView b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (const std::uint8_t c : b) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

ScenarioDeployment::Options durable_opts(std::uint64_t seed,
                                         std::size_t brokers = 4,
                                         std::size_t tdns = 1) {
  ScenarioDeployment::Options opts;
  opts.overlay.shape = OverlaySpec::Shape::kChain;
  opts.overlay.brokers = brokers;
  opts.seed = seed;
  opts.tdn_replicas = tdns;
  opts.durability.enabled = true;
  return opts;
}

// --- TDN restart-with-state vs restart-cold -----------------------------

TEST(DurabilityChaos, TdnRestartWithStateServesDiscoveryWithoutReadvertisement) {
  VirtualTimeNetwork net(71);
  ScenarioDeployment dep(net, durable_opts(71));
  ASSERT_TRUE(dep.durable());
  ASSERT_TRUE(dep.tdn(0).durable());
  dep.register_brokers();
  net.run_for(20 * kMillisecond);

  dep.add_entity("entity-0", 0);
  net.run_for(20 * kMillisecond);
  start_tracing(net, dep.entity(0));

  const std::size_t ads = dep.tdn(0).advertisement_count();
  ASSERT_GE(ads, 1u);
  const std::size_t created = dep.tdn(0).stats().topics_created;

  // Process dies, state survives: every advertisement and broker
  // registration must come back from the store — no re-advertisement,
  // no re-registration.
  const std::size_t broker_entries = dep.tdn(0).broker_count();
  dep.restart_tdn_state(0, /*with_state=*/true);
  net.run_for(20 * kMillisecond);
  EXPECT_EQ(dep.tdn(0).advertisement_count(), ads);
  EXPECT_EQ(dep.tdn(0).broker_count(), broker_entries);
  EXPECT_GE(dep.tdn(0).stats().records_recovered, ads);
  EXPECT_EQ(dep.tdn(0).stats().topics_created, 0u)
      << "recovery must replay, not re-create";

  // Discovery is served from recovered state: a tracker arriving after
  // the restart resolves the entity's trace topic and starts receiving.
  dep.add_tracker("tracker-0", 3);
  net.run_for(20 * kMillisecond);
  std::size_t traces = 0;
  track(net, dep.tracker(0), "entity-0",
        [&](const tracing::TracePayload&, const pubsub::Message&) {
          ++traces;
        });
  net.run_for(2 * kSecond);
  EXPECT_GT(traces, 0u);
  (void)created;

  // Cold restart: the disk is gone too. Nothing survives.
  dep.restart_tdn_state(0, /*with_state=*/false);
  net.run_for(20 * kMillisecond);
  EXPECT_EQ(dep.tdn(0).advertisement_count(), 0u);
  EXPECT_EQ(dep.tdn(0).broker_count(), 0u);
}

// A checkpoint folds the WAL into the snapshot; recovery after it must
// yield the same state through the snapshot path.
TEST(DurabilityChaos, TdnCheckpointThenRestartRecoversFromSnapshot) {
  VirtualTimeNetwork net(72);
  ScenarioDeployment dep(net, durable_opts(72));
  dep.register_brokers();
  net.run_for(20 * kMillisecond);
  dep.add_entity("entity-0", 0);
  net.run_for(20 * kMillisecond);
  start_tracing(net, dep.entity(0));

  const std::size_t ads = dep.tdn(0).advertisement_count();
  ASSERT_GE(ads, 1u);
  ASSERT_TRUE(dep.tdn(0).checkpoint().is_ok());
  EXPECT_EQ(dep.tdn(0).store().wal_records(), 0u);

  dep.restart_tdn_state(0, /*with_state=*/true);
  net.run_for(20 * kMillisecond);
  EXPECT_TRUE(dep.tdn(0).store().snapshot_loaded());
  EXPECT_EQ(dep.tdn(0).advertisement_count(), ads);
}

// --- broker misbehaviour durability -------------------------------------

TEST(DurabilityChaos, BrokerRestartWithStatePreservesBlacklist) {
  VirtualTimeNetwork net(73);
  ScenarioDeployment dep(net, durable_opts(73));
  ASSERT_TRUE(dep.broker(0).misbehaviour_durable());
  dep.register_brokers();
  net.run_for(20 * kMillisecond);

  const transport::NodeId victim =
      net.add_node("victim", [](transport::NodeId, BytesView) {});
  pubsub::Broker& b = dep.broker(0);
  for (int i = 0; i < 8; ++i) b.report_misbehaviour(victim, "chaos probe");
  ASSERT_TRUE(b.is_blacklisted(victim));
  const std::size_t blacklisted = b.blacklist_size();

  dep.restart_broker_state(0, /*with_state=*/true);
  net.run_for(20 * kMillisecond);
  EXPECT_TRUE(b.is_blacklisted(victim))
      << "restart-with-state must not forgive the blacklist";
  EXPECT_EQ(b.blacklist_size(), blacklisted);

  // One more strike must not need the whole threshold again: the counter
  // itself was recovered, so the endpoint stays over the line.
  b.report_misbehaviour(victim, "chaos probe");
  EXPECT_TRUE(b.is_blacklisted(victim));

  dep.restart_broker_state(0, /*with_state=*/false);
  net.run_for(20 * kMillisecond);
  EXPECT_FALSE(b.is_blacklisted(victim)) << "cold restart forgives";
  EXPECT_EQ(b.blacklist_size(), 0u);
}

// --- audit-after-partition ----------------------------------------------

struct DurableRun {
  std::vector<std::string> timeline;
  std::vector<std::string> actions;
  std::vector<std::string> violations;
  std::vector<std::string> audit;
  std::vector<std::string> heads;  // per-broker ledger head digests (hex)
  std::size_t digest_heartbeats = 0;  // tracker observations from digests
};

/// Partition the chain, heal it, then state-restart TDN 0 and broker 0;
/// sample truth throughout and audit the ledgers at the end. A nonzero
/// `digest_interval` coalesces the entity's heartbeats into digests.
DurableRun run_durable_scenario(std::uint64_t seed,
                                Duration digest_interval = 0) {
  VirtualTimeNetwork net(seed);
  ScenarioDeployment::Options opts = durable_opts(seed);
  opts.config.digest_interval = digest_interval;
  ScenarioDeployment dep(net, opts);
  dep.register_brokers();
  net.run_for(20 * kMillisecond);

  dep.add_entity("entity-0", 0);
  net.run_for(20 * kMillisecond);
  dep.add_tracker("tracker-0", 3);
  net.run_for(20 * kMillisecond);
  start_tracing(net, dep.entity(0));

  AvailabilityOracle oracle;
  std::size_t digest_heartbeats = 0;
  track(net, dep.tracker(0), "entity-0",
        oracle.tap("tracker-0", "entity-0", net,
                   [&](const tracing::TracePayload&, const pubsub::Message& m) {
                     if (m.topic.ends_with("/Digest")) ++digest_heartbeats;
                   }));

  FailureSchedule schedule;
  schedule.partition(1 * kSecond, {{0, 1}, {2, 3}})
      .heal(5 * kSecond)
      .tdn_restart_with_state(7 * kSecond, {0})
      .restart_with_state(7 * kSecond + 100 * kMillisecond, {0});

  ScheduleEngine engine(net, dep.topology());
  dep.attach_restart_handler(engine);
  engine.run(schedule);

  dep.sample_truth(oracle, net.now());
  for (Duration t = 0; t < 12 * kSecond; t += 50 * kMillisecond) {
    net.run_for(50 * kMillisecond);
    dep.sample_truth(oracle, net.now());
  }

  DurableRun out;
  out.digest_heartbeats = digest_heartbeats;
  out.timeline = oracle.timeline();
  out.actions = engine.action_log();
  const Duration grace = 50 * kMillisecond + 2 * kSecond +
                         dep.config().recovery_announce_delay;
  out.violations =
      oracle.check_invariants(detection_bound(dep.config()), grace);
  out.audit = dep.audit_ledgers(oracle);
  for (std::size_t i = 0; i < dep.broker_count(); ++i) {
    for (const std::string& topic : dep.ledger(i).topics()) {
      out.heads.push_back(std::to_string(i) + "/" + topic + "=" +
                          hex(dep.ledger(i).head_digest(topic)));
    }
  }
  return out;
}

TEST(DurabilityChaos, AuditAfterPartitionPassesInvariantsAndChains) {
  const DurableRun r = run_durable_scenario(8101);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front() << " (+" << r.violations.size() - 1 << " more)";
  EXPECT_TRUE(r.audit.empty())
      << r.audit.front() << " (+" << r.audit.size() - 1 << " more)";
  EXPECT_FALSE(r.heads.empty()) << "traces must have been ledgered";
  // The schedule's restart steps actually ran.
  bool saw_state_restart = false;
  for (const std::string& a : r.actions) {
    if (a.find("restart-state") != std::string::npos) {
      saw_state_restart = true;
    }
  }
  EXPECT_TRUE(saw_state_restart);
}

// The audit's digest branch: with coalesced heartbeats, every heartbeat
// the tracker saw must be vouched for by a digest record in the ledgers.
TEST(DurabilityChaos, AuditAfterPartitionExpandsDigestRecords) {
  const DurableRun r = run_durable_scenario(8103, 200 * kMillisecond);
  EXPECT_GT(r.digest_heartbeats, 0u);
  EXPECT_TRUE(r.audit.empty())
      << r.audit.front() << " (+" << r.audit.size() - 1 << " more)";
}

// A digest record whose roster epoch no earlier record of its chain
// carried cannot be expanded: the audit reports it instead of skipping it.
TEST(DurabilityChaos, AuditReportsADigestWithoutItsRoster) {
  VirtualTimeNetwork net(8104);
  ScenarioDeployment::Options opts = durable_opts(8104);
  opts.config.digest_interval = 200 * kMillisecond;
  ScenarioDeployment dep(net, opts);
  dep.register_brokers();
  net.run_for(20 * kMillisecond);
  dep.add_entity("entity-0", 0);
  net.run_for(20 * kMillisecond);
  dep.add_tracker("tracker-0", 3);
  net.run_for(20 * kMillisecond);
  start_tracing(net, dep.entity(0));
  AvailabilityOracle oracle;
  track(net, dep.tracker(0), "entity-0",
        oracle.tap("tracker-0", "entity-0", net));
  net.run_for(1 * kSecond);
  ASSERT_TRUE(dep.audit_ledgers(oracle).empty());

  persist::TraceLedger& ledger = dep.ledger(0);
  std::string digest_topic;
  for (const std::string& topic : ledger.topics()) {
    if (topic.ends_with("/Digest")) digest_topic = topic;
  }
  ASSERT_FALSE(digest_topic.empty());
  const tracing::TraceDigest last = tracing::TraceDigest::deserialize(
      ledger.records(digest_topic).back().payload);
  tracing::TraceDigest orphan = last;
  orphan.roster.clear();
  orphan.epoch = last.epoch + 1 == 0 ? 1 : last.epoch + 1;
  ASSERT_TRUE(ledger
                  .append(digest_topic, orphan.host_id,
                          static_cast<std::uint8_t>(
                              tracing::TraceType::kDigest),
                          net.now(), orphan.serialize(), Bytes{})
                  .is_ok());
  const std::vector<std::string> audit = dep.audit_ledgers(oracle);
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_NE(audit.front().find("roster epoch"), std::string::npos)
      << audit.front();
}

// A deliberately tampered chain must fail the audit — the detection half
// of audit_after_partition, driven through the deployment API.
TEST(DurabilityChaos, AuditFlagsTamperedLedger) {
  VirtualTimeNetwork net(8102);
  ScenarioDeployment dep(net, durable_opts(8102));
  dep.register_brokers();
  net.run_for(20 * kMillisecond);
  dep.add_entity("entity-0", 0);
  net.run_for(20 * kMillisecond);
  dep.add_tracker("tracker-0", 3);
  net.run_for(20 * kMillisecond);
  start_tracing(net, dep.entity(0));
  track(net, dep.tracker(0), "entity-0",
        [](const tracing::TracePayload&, const pubsub::Message&) {});
  net.run_for(2 * kSecond);

  // Forge history: append a record whose prev_digest ignores the chain
  // head. The auditor must name the broker.
  persist::TraceLedger& ledger = dep.ledger(0);
  ASSERT_FALSE(ledger.topics().empty());
  const std::string topic = ledger.topics().front();
  const std::size_t len = ledger.records(topic).size();
  ASSERT_GE(len, 1u);
  std::vector<persist::LedgerRecord> forged = ledger.records(topic);
  forged[len - 1].payload.push_back(0xee);  // tamper the stored body
  EXPECT_FALSE(persist::LedgerAuditor::verify_chain(forged).ok);
}

// --- same-seed determinism ----------------------------------------------

TEST(DurabilityChaos, SameSeedSameTimelineActionsAndLedgerHeads) {
  const DurableRun a = run_durable_scenario(4242);
  const DurableRun b = run_durable_scenario(4242);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.heads, b.heads);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.audit, b.audit);
}

// --- SocketNetwork kill-and-recover smoke -------------------------------

// A real-TCP TDN dies without checkpointing; a fresh instance over the
// same state directory serves the topic to a discovery client.
TEST(DurabilitySocketSmoke, TdnKillAndRecoverServesDiscovery) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "et-durability-socket-smoke";
  fs::remove_all(dir);

  transport::SocketNetwork net(/*seed=*/91);
  transport::LinkParams fast = transport::LinkParams::ideal_profile();
  fast.base_latency = 1 * kMillisecond;

  Rng rng(91);
  constexpr std::size_t kBits = 512;
  crypto::CertificateAuthority ca("ca", rng, kBits);
  const crypto::Identity tdn_id = crypto::Identity::create(
      "tdn-0", ca, rng, net.now(), 3600 * kSecond, kBits);

  const auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  const auto await = [&](const bool& done) {
    for (int i = 0; i < 100 && !done; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };

  {
    discovery::Tdn tdn(net, {tdn_id, ca.public_key(), /*seed=*/5,
                             (dir / "tdn-0").string(),
                             persist::FsyncPolicy::kEveryAppend});
    discovery::DiscoveryClient creator(
        net, crypto::Identity::create("entity-1", ca, rng, net.now(),
                                      3600 * kSecond, kBits));
    creator.attach_tdn(tdn.node(), fast);
    settle();

    Result<discovery::TopicAdvertisement> created(
        internal_error("no callback"));
    bool done = false;
    creator.create_topic("Availability/Traces/entity-1", {}, 3600 * kSecond,
                         [&](Result<discovery::TopicAdvertisement> r) {
                           created = std::move(r);
                           done = true;
                         });
    await(done);
    ASSERT_TRUE(done && created.ok()) << created.status().to_string();
    settle();
    // Process killed here: the Tdn is destroyed WITHOUT a checkpoint —
    // recovery must come from the write-ahead log alone.
  }

  {
    discovery::Tdn revived(net, {tdn_id, ca.public_key(), /*seed=*/5,
                                 (dir / "tdn-0").string(),
                                 persist::FsyncPolicy::kEveryAppend});
    EXPECT_EQ(revived.advertisement_count(), 1u);
    EXPECT_GE(revived.stats().records_recovered, 1u);

    discovery::DiscoveryClient tracker(
        net, crypto::Identity::create("tracker-1", ca, rng, net.now(),
                                      3600 * kSecond, kBits));
    tracker.attach_tdn(revived.node(), fast);
    settle();

    Result<std::vector<discovery::TopicAdvertisement>> found(
        internal_error("no callback"));
    bool done = false;
    tracker.discover("Availability/Traces/entity-1",
                     [&](Result<std::vector<discovery::TopicAdvertisement>> r) {
                       found = std::move(r);
                       done = true;
                     });
    await(done);
    ASSERT_TRUE(done && found.ok()) << found.status().to_string();
    ASSERT_EQ(found->size(), 1u);
    EXPECT_EQ((*found)[0].descriptor(), "Availability/Traces/entity-1");
    settle();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace et::chaos
