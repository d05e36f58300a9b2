// Shared test fixture assembling a complete tracing deployment on the
// deterministic virtual-time backend: CA, TDN, broker chain with tracing
// services and trace filters, plus factory helpers for entities/trackers.
//
// Uses 512-bit RSA keys to keep the suite fast; the protocol logic is key
// size independent.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/crypto/credential.h"
#include "src/discovery/discovery_client.h"
#include "src/discovery/tdn.h"
#include "src/pubsub/topology.h"
#include "src/tracing/config.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"
#include "src/transport/virtual_network.h"

namespace et::tracing::testing {

inline constexpr std::size_t kTestKeyBits = 512;

/// One tracker observation, reduced to what the hosting broker's failure
/// ladder decides: which trace, about whom, and why.
struct Observed {
  TraceType type = TraceType::kAllsWell;
  std::string entity_id;
  std::string detail;

  friend bool operator==(const Observed&, const Observed&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Observed& o) {
    return os << trace_type_name(o.type) << '(' << o.entity_id << ", \""
              << o.detail << "\")";
  }
};

/// Tracker handler appending every observation to `out` except plain
/// heartbeats (ALLS_WELL without detail), whose count depends on timing.
inline Tracker::TraceHandler record_observations(std::vector<Observed>* out) {
  return [out](const TracePayload& p, const pubsub::Message&) {
    if (p.type == TraceType::kAllsWell && p.detail.empty()) return;
    out->push_back({p.type, p.entity_id, p.detail});
  };
}

/// A ready-to-use deployment.
class TracingHarness {
 public:
  explicit TracingHarness(std::size_t broker_count = 1,
                          TracingConfig config = fast_config(),
                          std::uint64_t seed = 1234,
                          std::size_t interest_summary_depth = 0)
      : net(seed),
        rng(seed),
        ca("test-ca", rng, kTestKeyBits),
        config_(config) {
    // TDN identity + node.
    crypto::Identity tdn_identity =
        crypto::Identity::create("tdn-0", ca, rng, net.now(),
                                 3600 * kSecond, kTestKeyBits);
    anchors.ca_key = ca.public_key();
    anchors.tdn_key = tdn_identity.keys.public_key;
    tdn = std::make_unique<discovery::Tdn>(net, std::move(tdn_identity),
                                           ca.public_key(), seed + 1);

    // Broker chain with tracing services and filters everywhere. Filters
    // ride the construction path: install_trace_filter fills the broker
    // Options before each broker is built.
    topology = std::make_unique<pubsub::Topology>(net);
    brokers = topology->make_chain(
        broker_count, link(), "broker", [&](const std::string& name) {
          pubsub::Broker::Options o;
          o.name = name;
          o.interest_summary_depth = interest_summary_depth;
          filters.push_back(install_trace_filter(o, anchors, net, config_));
          token_caches.push_back(filters.back().cache());
          return o;
        });
    for (std::size_t i = 0; i < brokers.size(); ++i) {
      services.push_back(std::make_unique<TracingBrokerService>(
          *brokers[i], anchors, config_, seed + 100 + i));
    }
  }

  /// Fast-turnaround config for tests.
  static TracingConfig fast_config() {
    TracingConfig c;
    c.ping_interval = 100 * kMillisecond;
    c.min_ping_interval = 20 * kMillisecond;
    c.gauge_interval = 300 * kMillisecond;
    c.metrics_interval = 250 * kMillisecond;
    c.delegate_key_bits = kTestKeyBits;
    return c;
  }

  /// `base` with broker-silence failover on: 600 ms of silence starts it,
  /// and the retry policy never gives up (an availability reporter keeps
  /// trying to report).
  static TracingConfig failover_config(TracingConfig base) {
    base.broker_silence_timeout = 600 * kMillisecond;
    RetryPolicy r;
    r.max_attempts = 0;
    r.initial_backoff = 50 * kMillisecond;
    r.max_backoff = 400 * kMillisecond;
    r.deadline = 10 * kSecond;
    base.retry = r;
    return base;
  }

  /// Default low-latency link for tests.
  static transport::LinkParams link() {
    transport::LinkParams p = transport::LinkParams::ideal_profile();
    p.base_latency = 1 * kMillisecond;
    return p;
  }

  /// Enrolls every broker in the TDN's registry so find_broker (and hence
  /// entity failover) can discover them. Keeps the registrar client alive
  /// for the harness lifetime.
  void register_brokers() {
    registrar = std::make_unique<discovery::DiscoveryClient>(
        net, make_identity("registrar"));
    registrar->attach_tdn(tdn->node(), link());
    for (pubsub::Broker* b : brokers) {
      registrar->register_broker(b->name(), b->node(),
                                 make_identity(b->name()).credential);
    }
    net.run_for(20 * kMillisecond);
  }

  crypto::Identity make_identity(const std::string& id) {
    return crypto::Identity::create(id, ca, rng, net.now(), 3600 * kSecond,
                                    kTestKeyBits);
  }

  // NOTE: the deployment contains self-rescheduling timers (pings,
  // gauges), so run_until_idle would never return once a session exists.
  // All helpers advance bounded virtual time with run_for instead.

  /// Entity attached to `broker_index`, TDN wired.
  std::unique_ptr<TracedEntity> make_entity(const std::string& id,
                                            std::size_t broker_index = 0) {
    auto e = std::make_unique<TracedEntity>(net, make_identity(id), anchors,
                                            config_, rng.next_u64());
    e->attach_tdn(tdn->node(), link());
    e->connect_broker(brokers.at(broker_index)->node(), link());
    net.run_for(20 * kMillisecond);
    return e;
  }

  /// An entity signing with `identity`, which the test keeps (to sign as
  /// the entity), attached to broker 0, TDN wired.
  std::unique_ptr<TracedEntity> make_entity(const crypto::Identity& identity) {
    auto e = std::make_unique<TracedEntity>(net, identity, anchors, config_,
                                            rng.next_u64());
    e->attach_tdn(tdn->node(), link());
    e->connect_broker(brokers.at(0)->node(), link());
    net.run_for(20 * kMillisecond);
    return e;
  }

  /// Tracker attached to `broker_index`, TDN wired.
  std::unique_ptr<Tracker> make_tracker(const std::string& id,
                                        std::size_t broker_index = 0) {
    auto t = std::make_unique<Tracker>(net, make_identity(id), anchors,
                                       rng.next_u64());
    t->attach_tdn(tdn->node(), link());
    t->connect_broker(brokers.at(broker_index)->node(), link());
    net.run_for(20 * kMillisecond);
    return t;
  }

  /// Delivers `m` straight over `t`'s access link, bypassing every broker
  /// and its filter (a compromised last hop), and lets it arrive.
  void deliver_direct(Tracker& t, const pubsub::Message& m) {
    if (!net.linked(tdn->node(), t.client().node())) {
      net.link(tdn->node(), t.client().node(), link());
    }
    (void)net.send(tdn->node(), t.client().node(),
                   pubsub::make_publish(m).serialize());
    net.run_for(10 * kMillisecond);
  }

  /// Runs start_tracing to completion; returns the outcome.
  Status start_tracing(TracedEntity& e,
                       discovery::DiscoveryRestrictions restrictions = {}) {
    Status out = internal_error("callback never ran");
    bool done = false;
    e.start_tracing(std::move(restrictions), [&](const Status& s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
    return out;
  }

  /// Runs track() to completion; returns the outcome.
  Status track(Tracker& t, const std::string& entity_id,
               std::uint8_t categories, Tracker::TraceHandler handler) {
    Status out = internal_error("callback never ran");
    bool done = false;
    t.track(entity_id, categories, std::move(handler), [&](const Status& s) {
      out = s;
      done = true;
    });
    for (int i = 0; i < 100 && !done; ++i) net.run_for(50 * kMillisecond);
    // Let the unsolicited interest response reach the hosting broker.
    net.run_for(20 * kMillisecond);
    return out;
  }

  transport::VirtualTimeNetwork net;
  Rng rng;
  crypto::CertificateAuthority ca;
  TrustAnchors anchors;
  std::unique_ptr<discovery::Tdn> tdn;
  std::unique_ptr<discovery::DiscoveryClient> registrar;
  std::unique_ptr<pubsub::Topology> topology;
  std::vector<pubsub::Broker*> brokers;
  std::vector<std::unique_ptr<TracingBrokerService>> services;
  /// Per-broker trace-filter handles (parallel to `brokers`).
  std::vector<TraceFilterHandle> filters;
  /// Per-broker token-verification caches (parallel to `brokers`; entries
  /// are nullptr when the config disables caching).
  std::vector<std::shared_ptr<TokenVerifyCache>> token_caches;

 private:
  TracingConfig config_;
};

}  // namespace et::tracing::testing
