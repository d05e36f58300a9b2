// Concurrency stress for the sharded subscription table and a broker on
// the real-time backend. Built for ET_SANITIZE=thread: the assertions are
// deliberately coarse (no lost updates, no crashes, all messages arrive)
// — the point is giving TSan real concurrent traffic over the RCU
// snapshot path and the backend's cross-thread entry points.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/pubsub/broker.h"
#include "src/pubsub/client.h"
#include "src/pubsub/subscription.h"
#include "src/pubsub/topology.h"
#include "src/transport/realtime_network.h"

namespace et::pubsub {
namespace {

TEST(SubscriptionStressTest, ConcurrentWritersAndSnapshotReaders) {
  SubscriptionTable table;
  // A stable base population so readers always have something to match.
  for (int i = 0; i < 32; ++i) {
    table.add("base/seg" + std::to_string(i) + "/#",
              static_cast<transport::NodeId>(1000 + i));
  }
  table.add("#", 999);

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_matches{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, w] {
      const auto endpoint = static_cast<transport::NodeId>(w + 1);
      for (int i = 0; i < kIters; ++i) {
        const std::string pattern =
            "w" + std::to_string(w) + "/topic" + std::to_string(i % 16);
        table.add(pattern, endpoint);
        if (i % 3 == 0) table.remove(pattern, endpoint);
        if (i % 97 == 0) (void)table.remove_endpoint(endpoint);
      }
      (void)table.remove_endpoint(endpoint);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&table, &stop, &reader_matches, r] {
      const TopicPath own("w" + std::to_string(r % kWriters) + "/topic3");
      const TopicPath base("base/seg7/deep/leaf");
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = table.snapshot();
        // The wildcard subscriber and the base population never go away,
        // so every snapshot must see them.
        ASSERT_TRUE(snap->match(base).contains(999));
        ASSERT_TRUE(snap->match(base).contains(1007));
        ASSERT_TRUE(snap->any_match(own));  // "#" matches everything
        reader_matches.fetch_add(1, std::memory_order_relaxed);
        // Table shorthands take their own snapshot internally.
        ASSERT_TRUE(table.endpoint_matches(999, own));
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  EXPECT_GT(reader_matches.load(), 0u);
  // All writer subscriptions were torn down; the base population stays.
  EXPECT_EQ(table.pattern_count(), 33u);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_FALSE(table.endpoint_matches(
        static_cast<transport::NodeId>(w + 1),
        TopicPath("w" + std::to_string(w) + "/topic3")));
  }
}

TEST(SubscriptionStressTest, ConcurrentPublishersAllDelivered) {
  transport::RealTimeNetwork net(1717);
  Topology topo(net);
  Broker::Options o;
  o.name = "b0";
  Broker& broker = topo.add_broker(std::move(o));

  transport::LinkParams link = transport::LinkParams::ideal_profile();

  Client sub(net, "sub");
  std::atomic<bool> sub_connected{false};
  sub.connect(broker.node(), link,
              [&](const Status& s) { sub_connected = s.is_ok(); });
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> subscribed{false};
  sub.subscribe(
      "stress/#", [&](const Message&) { delivered.fetch_add(1); },
      [&](const Status& s) { subscribed = s.is_ok(); });

  constexpr int kPublishers = 3;
  constexpr int kPerPublisher = 200;
  std::vector<std::unique_ptr<Client>> pubs;
  std::atomic<int> connected{0};
  for (int p = 0; p < kPublishers; ++p) {
    pubs.push_back(
        std::make_unique<Client>(net, "pub" + std::to_string(p)));
    pubs.back()->connect(broker.node(), link, [&](const Status& s) {
      if (s.is_ok()) connected.fetch_add(1);
    });
  }
  for (int i = 0; i < 200; ++i) {
    if (sub_connected && subscribed && connected == kPublishers) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(sub_connected && subscribed);
  ASSERT_EQ(connected.load(), kPublishers);

  // Publish concurrently from plain test threads: Client::publish posts
  // into the client's node context, so this also stresses the backend's
  // cross-thread entry points.
  std::vector<std::thread> workers;
  for (int p = 0; p < kPublishers; ++p) {
    workers.emplace_back([&pubs, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pubs[p]->publish("stress/p" + std::to_string(p) + "/" +
                             std::to_string(i % 8),
                         to_bytes(std::to_string(i)));
      }
    });
  }
  for (auto& t : workers) t.join();

  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kPublishers) * kPerPublisher;
  for (int i = 0; i < 1000 && delivered.load() < kExpected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(delivered.load(), kExpected);
  const BrokerStats stats = broker.stats();
  EXPECT_GE(stats.published, kExpected);
  EXPECT_GE(stats.delivered_local, kExpected);

  net.stop();
}

TEST(SubscriptionStressTest, ServiceChurnDuringConcurrentPublishing) {
  // Local services come and go in the node context (as tracing sessions
  // do) while publishers on other threads keep traffic flowing through
  // the service index.
  transport::RealTimeNetwork net(2121);
  Topology topo(net);
  Broker::Options o;
  o.name = "b0";
  Broker& broker = topo.add_broker(std::move(o));

  std::atomic<std::uint64_t> stable{0};
  std::atomic<std::uint64_t> churned{0};
  std::atomic<bool> ready{false};
  net.post(broker.node(), [&] {
    broker.subscribe_local("churn/#", [&](const Message&) {
      stable.fetch_add(1, std::memory_order_relaxed);
    });
    ready = true;
  });

  transport::LinkParams link = transport::LinkParams::ideal_profile();
  constexpr int kPublishers = 2;
  constexpr int kPerPublisher = 300;
  std::vector<std::unique_ptr<Client>> pubs;
  std::atomic<int> connected{0};
  for (int p = 0; p < kPublishers; ++p) {
    pubs.push_back(std::make_unique<Client>(net, "pub" + std::to_string(p)));
    pubs.back()->connect(broker.node(), link, [&](const Status& s) {
      if (s.is_ok()) connected.fetch_add(1);
    });
  }
  for (int i = 0; i < 200 && !(ready && connected == kPublishers); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(ready);
  ASSERT_EQ(connected.load(), kPublishers);
  const std::size_t edges_before = broker.interest_edges();

  // Each churn round subscribes an exact and a wildcard service that
  // overlap the publications, then drops the previous round's pair.
  constexpr int kRounds = 200;
  std::atomic<int> rounds_done{0};
  std::vector<LocalServiceId> live;  // node context only
  std::thread churner([&] {
    for (int r = 0; r < kRounds; ++r) {
      net.post(broker.node(), [&, r] {
        const auto count = [&](const Message&) {
          churned.fetch_add(1, std::memory_order_relaxed);
        };
        std::vector<LocalServiceId> next = {
            broker.subscribe_local("churn/p0/" + std::to_string(r % 8), count),
            broker.subscribe_local("churn/*/" + std::to_string(r % 8), count,
                                   /*local_only=*/r % 2 == 0)};
        for (const LocalServiceId id : live) broker.unsubscribe_local(id);
        live = std::move(next);
        rounds_done.fetch_add(1);
      });
    }
  });
  std::vector<std::thread> workers;
  for (int p = 0; p < kPublishers; ++p) {
    workers.emplace_back([&pubs, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        pubs[p]->publish("churn/p" + std::to_string(p) + "/" +
                             std::to_string(i % 8),
                         to_bytes(std::to_string(i)));
      }
    });
  }
  churner.join();
  for (auto& t : workers) t.join();

  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kPublishers) * kPerPublisher;
  for (int i = 0; i < 1000 && (stable.load() < kExpected ||
                               rounds_done.load() < kRounds);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The service that never left saw every message exactly once.
  EXPECT_EQ(stable.load(), kExpected);
  EXPECT_EQ(rounds_done.load(), kRounds);

  // Dropping the last pair returns the broker to its own interest only.
  std::atomic<bool> cleared{false};
  net.post(broker.node(), [&] {
    for (const LocalServiceId id : live) broker.unsubscribe_local(id);
    live.clear();
    cleared = true;
  });
  for (int i = 0; i < 200 && !cleared; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(cleared);
  EXPECT_EQ(broker.interest_edges(), edges_before);

  net.stop();
}

}  // namespace
}  // namespace et::pubsub
