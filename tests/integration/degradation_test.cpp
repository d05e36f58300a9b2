// Graceful degradation under faults (DESIGN.md §11): security bookkeeping
// must not reset just because the network misbehaved.
//
//   * a blacklist entry earned before a partition is still enforced after
//     the partition heals — misbehaviour is a property of the endpoint,
//     not of the current connectivity;
//   * filter strikes against a neighbour broker accumulate across a
//     partition, blacklist it once they cross the threshold, and the
//     blacklist outlives the next partition and heal;
//   * an entity that failed over re-registers under a fresh session and
//     exactly one broker hosts it (covered from the tracing side by
//     chaos_soak_test; here we pin the pub/sub substrate).
#include <gtest/gtest.h>

#include <utility>

#include "src/pubsub/broker.h"
#include "src/pubsub/client.h"
#include "src/pubsub/topology.h"
#include "src/transport/fault_injector.h"
#include "src/transport/virtual_network.h"

namespace et::pubsub {
namespace {

transport::LinkParams fast() {
  transport::LinkParams p = transport::LinkParams::ideal_profile();
  p.base_latency = 1 * kMillisecond;
  return p;
}

TEST(DegradationTest, BlacklistPersistsAcrossPartitionAndHeal) {
  transport::VirtualTimeNetwork net(7);
  Topology topo(net);
  Broker::Options o;
  o.name = "b0";
  o.misbehaviour_threshold = 3;
  o.message_filter = [](Broker&, const MessageView& m,
                        transport::NodeId) -> Status {
    if (m.topic == "poison") return unauthenticated("poisoned");
    return Status::ok();
  };
  Broker& b0 = topo.add_broker(std::move(o));
  Broker& b1 = topo.add_broker({.name = "b1"});
  topo.connect_brokers(b0, b1, fast());

  Client attacker(net, "attacker");
  attacker.connect(b0.node(), fast());
  Client honest(net, "honest");
  honest.connect(b0.node(), fast());
  Client listener(net, "listener");
  listener.connect(b0.node(), fast());
  int delivered = 0;
  listener.subscribe("news", [&](const Message&) { ++delivered; });
  net.run_until_idle();

  for (int i = 0; i < 3; ++i) {
    attacker.publish("poison", to_bytes("x"));
    net.run_until_idle();
  }
  ASSERT_TRUE(b0.is_blacklisted(attacker.node()));

  // Partition the overlay, then heal it: the strike record and blacklist
  // must come out the other side untouched.
  topo.partition({{&b0}, {&b1}});
  net.run_for(500 * kMillisecond);
  topo.heal();
  net.run_until_idle();

  EXPECT_TRUE(b0.is_blacklisted(attacker.node()));
  // The blacklisted endpoint stays cut off...
  attacker.publish("news", to_bytes("spam"));
  net.run_until_idle();
  EXPECT_EQ(delivered, 0);
  // ... while well-behaved clients are unaffected by partition or heal.
  honest.publish("news", to_bytes("update"));
  net.run_until_idle();
  EXPECT_EQ(delivered, 1);
}

TEST(DegradationTest, FilterStrikesOnNeighbourSurvivePartitionAndHeal) {
  transport::VirtualTimeNetwork net(8);
  Topology topo(net);
  Broker& b0 = topo.add_broker({.name = "b0"});

  // b1's filter rejects every "suspicious" claim inline.
  Broker::Options o;
  o.name = "b1";
  o.misbehaviour_threshold = 2;
  o.message_filter = [](Broker&, const MessageView& m,
                        transport::NodeId) -> Status {
    if (m.topic == "suspicious") return unauthenticated("forged claim");
    return Status::ok();
  };
  Broker& b1 = topo.add_broker(std::move(o));
  topo.connect_brokers(b0, b1, fast());

  int delivered = 0;
  b1.subscribe_local("suspicious", [&](const Message&) { ++delivered; });
  net.run_for(10 * kMillisecond);  // interest propagates to b0
  const auto claim = [&b0](const char* body) {
    Message m;
    m.topic = "suspicious";
    m.payload = to_bytes(body);
    b0.publish_from_broker(std::move(m));
  };

  // First strike: the neighbour stays connected, below the threshold.
  claim("claim-1");
  net.run_until_idle();
  EXPECT_EQ(b1.stats().discarded, 1u);
  EXPECT_FALSE(b1.is_blacklisted(b0.node()));

  // A partition and heal in between does not reset the count: the
  // second strike after the heal crosses the threshold of 2.
  topo.partition({{&b0}, {&b1}});
  net.run_for(500 * kMillisecond);
  topo.heal();
  net.run_until_idle();
  claim("claim-2");
  net.run_until_idle();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b1.stats().discarded, 2u);
  EXPECT_TRUE(b1.is_blacklisted(b0.node()));
  EXPECT_EQ(b1.stats().disconnects, 1u);

  // Partitioning and healing again does not forgive the blacklist.
  topo.partition({{&b0}, {&b1}});
  net.run_for(500 * kMillisecond);
  topo.heal();
  net.run_until_idle();
  EXPECT_TRUE(b1.is_blacklisted(b0.node()));
  claim("claim-3");
  net.run_until_idle();
  EXPECT_EQ(b1.stats().discarded, 2u);  // cut off: never reaches the filter
}

}  // namespace
}  // namespace et::pubsub
