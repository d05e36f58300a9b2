// Shared infrastructure for the paper-reproduction benchmarks.
//
// Builds full tracing deployments on the wall-clock RealTimeNetwork with
// the paper's cryptographic configuration (RSA-1024 + SHA-1 + PKCS#1,
// AES-192) and link profiles modelled on its testbed (100 Mbps LAN,
// 1-2 ms/hop). Prints tables in the paper's format: mean, standard
// deviation, standard error — in each table's unit, milliseconds unless
// the table or a row names another.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/crypto/credential.h"
#include "src/discovery/tdn.h"
#include "src/pubsub/topology.h"
#include "src/tracing/config.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"
#include "src/transport/realtime_network.h"

namespace et::bench {

/// Counting latch for synchronizing measurement rounds with asynchronous
/// deliveries.
class Latch {
 public:
  void hit() {
    {
      std::lock_guard lock(mu_);
      ++count_;
    }
    cv_.notify_all();
  }

  /// Waits until at least `target` hits; false on timeout.
  bool wait_for(std::uint64_t target, Duration timeout) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(timeout),
                        [&] { return count_ >= target; });
  }

  [[nodiscard]] std::uint64_t count() {
    std::lock_guard lock(mu_);
    return count_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t count_ = 0;
};

/// Paper-style results table. Values are in the table's unit ("ms"
/// unless given); a row whose figure is not in that unit names its own.
class PaperTable {
 public:
  explicit PaperTable(std::string title, std::string unit = "ms")
      : title_(std::move(title)), unit_(std::move(unit)) {}

  void add_row(const std::string& label, const RunningStats& stats,
               std::string unit = {}) {
    rows_.push_back({label, unit.empty() ? unit_ : std::move(unit), stats});
  }

  void print() const {
    std::printf("\n%s\n", title_.c_str());
    std::printf("%-34s %10s %12s %12s  %s\n", "Operation", "Mean",
                "Std Dev", "Std Error", "Unit");
    for (const Row& r : rows_) {
      std::printf("%-34s %10.2f %12.2f %12.2f  %s\n", r.label.c_str(),
                  r.stats.mean(), r.stats.stddev(), r.stats.stderr_of_mean(),
                  r.unit.c_str());
    }
    std::fflush(stdout);
  }

  /// Machine-readable mirror of print(): one JSON object per line, so a
  /// BENCH_<name>.json trajectory can be scraped from stdout. Each row
  /// carries its unit.
  void print_json(const std::string& bench) const {
    std::printf("{\"bench\":\"%s\",\"title\":\"%s\",\"rows\":[",
                bench.c_str(), title_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::printf(
          "%s{\"label\":\"%s\",\"unit\":\"%s\",\"mean\":%.6f,"
          "\"stddev\":%.6f,\"stderr\":%.6f,\"n\":%zu}",
          i ? "," : "", r.label.c_str(), r.unit.c_str(), r.stats.mean(),
          r.stats.stddev(), r.stats.stderr_of_mean(), r.stats.count());
    }
    std::printf("]}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string label;
    std::string unit;
    RunningStats stats;
  };
  std::string title_;
  std::string unit_;
  std::vector<Row> rows_;
};

/// Paper §6.1 crypto configuration.
inline tracing::TracingConfig paper_config() {
  tracing::TracingConfig c;
  c.ping_interval = 500 * kMillisecond;
  c.gauge_interval = 5 * kSecond;
  c.metrics_interval = 5 * kSecond;
  c.delegate_key_bits = 1024;
  c.symmetric_alg = crypto::SymmetricAlg::kAes192Cbc;
  return c;
}

/// A complete real-time deployment: CA + TDN + broker chain/star with
/// tracing services and filters on every broker.
class Deployment {
 public:
  enum class Shape { kChain, kStar };

  Deployment(std::size_t broker_count, const transport::LinkParams& link,
             tracing::TracingConfig config, Shape shape = Shape::kChain,
             std::uint64_t seed = 4242)
      : net(seed),
        link_(link),
        config_(config),
        rng_(seed),
        ca_("bench-ca", rng_, 1024),
        // One long-term keypair shared by all bench identities: key
        // generation cost is excluded from protocol measurements (the
        // paper's identities pre-exist too).
        shared_keys_(crypto::rsa_generate(rng_, 1024)) {
    crypto::Identity tdn_identity;
    tdn_identity.id = "tdn-0";
    tdn_identity.keys = crypto::rsa_generate(rng_, 1024);
    tdn_identity.credential =
        ca_.issue("tdn-0", tdn_identity.keys.public_key, net.now(),
                  24 * 3600 * kSecond);
    anchors_.ca_key = ca_.public_key();
    anchors_.tdn_key = tdn_identity.keys.public_key;
    tdn_ = std::make_unique<discovery::Tdn>(net, std::move(tdn_identity),
                                            ca_.public_key(), seed + 1);

    topology_ = std::make_unique<pubsub::Topology>(net);
    // Filters ride the broker construction path (Broker::Options).
    const pubsub::BrokerOptionsFn opts = [&](const std::string& name) {
      pubsub::Broker::Options o;
      o.name = name;
      filters_.push_back(
          tracing::install_trace_filter(o, anchors_, net, config_));
      token_caches_.push_back(filters_.back().cache());
      return o;
    };
    brokers_ = (shape == Shape::kChain)
                   ? topology_->make_chain(broker_count, link_, "broker", opts)
                   : topology_->make_star(broker_count - 1, link_, "broker",
                                          opts);
    for (std::size_t i = 0; i < brokers_.size(); ++i) {
      services_.push_back(std::make_unique<tracing::TracingBrokerService>(
          *brokers_[i], anchors_, config_, seed + 100 + i));
    }
  }

  crypto::Identity make_identity(const std::string& id) {
    crypto::Identity ident;
    ident.id = id;
    ident.keys = shared_keys_;
    ident.credential = ca_.issue(id, shared_keys_.public_key, net.now(),
                                 24 * 3600 * kSecond);
    return ident;
  }

  std::unique_ptr<tracing::TracedEntity> make_entity(
      const std::string& id, std::size_t broker_index = 0) {
    auto e = std::make_unique<tracing::TracedEntity>(
        net, make_identity(id), anchors_, config_, rng_.next_u64());
    e->attach_tdn(tdn_->node(), link_);
    e->connect_broker(brokers_.at(broker_index)->node(), link_);
    // Fixed settle instead of drain(): periodic ping timers leave no
    // quiescent window once sessions exist, but the connect handshake
    // completes within a few link RTTs.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return e;
  }

  std::unique_ptr<tracing::Tracker> make_tracker(
      const std::string& id, std::size_t broker_index = 0) {
    auto t = std::make_unique<tracing::Tracker>(net, make_identity(id),
                                                anchors_, rng_.next_u64());
    t->attach_tdn(tdn_->node(), link_);
    t->connect_broker(brokers_.at(broker_index)->node(), link_);
    // Fixed settle instead of drain(): periodic ping timers leave no
    // quiescent window once sessions exist, but the connect handshake
    // completes within a few link RTTs.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return t;
  }

  /// Blocking start_tracing; aborts the process on failure.
  void start_tracing(tracing::TracedEntity& e) {
    Latch done;
    Status result = internal_error("never ran");
    e.start_tracing({}, [&](const Status& s) {
      result = s;
      done.hit();
    });
    if (!done.wait_for(1, 30 * kSecond) || !result.is_ok()) {
      std::fprintf(stderr,
                   "FATAL: start_tracing(%s) failed: %s "
                   "(topic_nil=%d session_nil=%d active=%d)\n",
                   e.entity_id().c_str(), result.to_string().c_str(),
                   e.trace_topic().is_nil(), e.session_id().is_nil(),
                   e.tracing_active());
      std::abort();
    }
  }

  /// Blocking track(); aborts on failure.
  void track(tracing::Tracker& t, const std::string& entity_id,
             std::uint8_t categories, tracing::Tracker::TraceHandler handler) {
    Latch done;
    Status result = internal_error("never ran");
    t.track(entity_id, categories, std::move(handler), [&](const Status& s) {
      result = s;
      done.hit();
    });
    if (!done.wait_for(1, 30 * kSecond) || !result.is_ok()) {
      std::fprintf(stderr, "FATAL: track failed: %s\n",
                   result.to_string().c_str());
      std::abort();
    }
    // Fixed settle instead of drain(): periodic ping timers leave no
    // quiescent window once sessions exist, but the connect handshake
    // completes within a few link RTTs.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  [[nodiscard]] std::size_t broker_count() const { return brokers_.size(); }
  [[nodiscard]] pubsub::Broker& broker(std::size_t i) { return *brokers_[i]; }
  [[nodiscard]] tracing::TracingBrokerService& service(std::size_t i) {
    return *services_[i];
  }
  /// Broker i's token-verification cache (nullptr when disabled).
  [[nodiscard]] const std::shared_ptr<tracing::TokenVerifyCache>&
  token_cache(std::size_t i) const {
    return token_caches_.at(i);
  }
  /// Broker i's trace-filter handle (verdict counters + cache stats).
  [[nodiscard]] const tracing::TraceFilterHandle& filter(
      std::size_t i) const {
    return filters_.at(i);
  }
  [[nodiscard]] const tracing::TrustAnchors& anchors() const {
    return anchors_;
  }
  [[nodiscard]] const crypto::RsaKeyPair& shared_keys() const {
    return shared_keys_;
  }

  /// Must be called when measurement ends, while every entity/tracker
  /// created from this deployment is still alive: it halts all network
  /// threads so no timer can fire into an actor mid-destruction.
  ~Deployment() { net.stop(); }

  transport::RealTimeNetwork net;

 private:
  transport::LinkParams link_;
  tracing::TracingConfig config_;
  Rng rng_;
  crypto::CertificateAuthority ca_;
  crypto::RsaKeyPair shared_keys_;
  tracing::TrustAnchors anchors_;
  std::unique_ptr<discovery::Tdn> tdn_;
  std::unique_ptr<pubsub::Topology> topology_;
  std::vector<pubsub::Broker*> brokers_;
  std::vector<std::unique_ptr<tracing::TracingBrokerService>> services_;
  std::vector<tracing::TraceFilterHandle> filters_;
  std::vector<std::shared_ptr<tracing::TokenVerifyCache>> token_caches_;
};

/// Measures end-to-end trace latency: the entity flips its state, and we
/// time until the (verified, possibly decrypted) trace reaches the
/// tracker's handler. Returns stats in milliseconds over `rounds`.
inline RunningStats measure_state_trace_latency(
    Deployment& /*dep*/, tracing::TracedEntity& entity, Latch& received,
    std::size_t rounds, Duration per_round_timeout = 2 * kSecond) {
  RunningStats stats;
  SystemClock clock;
  std::uint64_t baseline = received.count();
  bool ready = true;
  for (std::size_t i = 0; i < rounds; ++i) {
    const tracing::EntityState next = ready ? tracing::EntityState::kReady
                                            : tracing::EntityState::kRecovering;
    ready = !ready;
    const TimePoint t0 = clock.now();
    entity.set_state(next);
    if (!received.wait_for(baseline + 1, per_round_timeout)) {
      // Lost on an unreliable link: skip the sample.
      baseline = received.count();
      continue;
    }
    const TimePoint t1 = clock.now();
    baseline = received.count();
    stats.add(to_millis(t1 - t0));
  }
  return stats;
}

}  // namespace et::bench
