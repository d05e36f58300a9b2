// E10 — per-hop verification fast path (token-verification cache).
//
// Two views of the same optimization:
//   1. Filter microbench: the broker-side trace filter invoked directly,
//      cold (every message pays the full RSA chain) vs warm (chain runs
//      once per token; messages pay a lookup of the token bytes plus a
//      delegate verify on the cached key's Montgomery constants),
//      at 1 / 10 / 100 distinct tokens in flight.
//   2. Deployment bench: paper-style 3-broker TCP chain, end-to-end trace
//      latency with the cache disabled vs enabled, plus the steady-state
//      hit rate observed at the downstream brokers.
//
// Emits the human-readable tables of the other benches plus one JSON
// object per table (see PaperTable::print_json) so a BENCH_token_cache
// trajectory can be tracked across PRs.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/tracing/token_verify_cache.h"
#include "src/transport/virtual_network.h"

namespace et::bench {
namespace {

constexpr std::size_t kKeyBits = 1024;  // paper §6.1 configuration
constexpr std::size_t kWarmRounds = 1000;
constexpr std::size_t kColdRounds = 20;

/// Direct-invocation fixture: one owner identity, D distinct tokens
/// (distinct TDN advertisements), one signed trace message per token.
class FilterMicro {
 public:
  FilterMicro()
      : rng_(4242), ca_("bench-ca", rng_, kKeyBits), net_(1) {
    owner_ = crypto::Identity::create("owner", ca_, rng_, 0,
                                      24 * 3600 * kSecond, kKeyBits);
    tdn_ = crypto::rsa_generate(rng_, kKeyBits);
    delegate_ = crypto::rsa_generate(rng_, kKeyBits);
    anchors_.ca_key = ca_.public_key();
    anchors_.tdn_key = tdn_.public_key;
  }

  /// Builds D token/message pairs, all valid for an hour.
  std::vector<pubsub::Message> make_messages(std::size_t count) {
    std::vector<pubsub::Message> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const Uuid topic = Uuid::generate(rng_);
      discovery::TopicAdvertisement unsigned_ad(
          topic, "Availability/Traces/owner", owner_.credential, {}, 0,
          3600 * kSecond, "tdn-0", {});
      const discovery::TopicAdvertisement ad(
          topic, "Availability/Traces/owner", owner_.credential, {}, 0,
          3600 * kSecond, "tdn-0",
          tdn_.private_key.sign(unsigned_ad.tbs()));
      const auto token = tracing::AuthorizationToken::create(
          ad, delegate_.public_key, tracing::TokenRights::kPublish, 0,
          3600 * kSecond, owner_.keys.private_key);

      tracing::TracePayload p;
      p.type = tracing::TraceType::kAllsWell;
      p.entity_id = "owner";
      pubsub::Message m;
      m.topic = pubsub::trace_topics::trace_publication(topic.to_string(),
                                                        "AllUpdates");
      m.payload = p.serialize();
      m.publisher = "broker-x";
      m.sequence = i + 1;
      m.auth_token = token.serialize();
      m.signature = delegate_.private_key.sign(m.signable_bytes());
      out.push_back(std::move(m));
    }
    return out;
  }

  pubsub::MessageFilter make_filter(
      std::shared_ptr<tracing::TokenVerifyCache> cache) {
    return tracing::make_trace_filter(anchors_, net_, std::move(cache));
  }

  /// Drives the filter the way a broker would: it sees a view of `m`, as
  /// it would a wire frame, and ok means accept.
  bool accepts(const pubsub::MessageFilter& f, const pubsub::Message& m) {
    return f(broker_, m.as_view(), 0).is_ok();
  }

 private:
  Rng rng_;
  crypto::CertificateAuthority ca_;
  transport::VirtualTimeNetwork net_;
  crypto::Identity owner_;
  crypto::RsaKeyPair tdn_;
  crypto::RsaKeyPair delegate_;
  tracing::TrustAnchors anchors_;
  pubsub::Broker broker_{net_, {.name = "bench-filter-host"}};
};

double run_micro(FilterMicro& fixture, std::size_t distinct_tokens,
                 PaperTable& table) {
  const auto messages = fixture.make_messages(distinct_tokens);
  SystemClock clock;
  const std::string suffix =
      " (" + std::to_string(distinct_tokens) + " tokens)";

  // Cold: a fresh cache per round, every message pays the full chain.
  RunningStats cold;
  for (std::size_t r = 0; r < kColdRounds; ++r) {
    auto cache = std::make_shared<tracing::TokenVerifyCache>(
        1024, 3600 * kSecond);
    auto filter = fixture.make_filter(cache);
    const TimePoint t0 = clock.now();
    for (const auto& m : messages) {
      if (!fixture.accepts(filter, m)) std::abort();
    }
    const TimePoint t1 = clock.now();
    cold.add(to_millis(t1 - t0) /
             static_cast<double>(messages.size()));
  }
  table.add_row("cold verify / msg" + suffix, cold);

  // Warm: one shared cache; after a priming pass every message is a hit.
  auto cache =
      std::make_shared<tracing::TokenVerifyCache>(1024, 3600 * kSecond);
  auto filter = fixture.make_filter(cache);
  for (const auto& m : messages) {
    if (!fixture.accepts(filter, m)) std::abort();
  }
  RunningStats warm;
  for (std::size_t r = 0; r < kWarmRounds; ++r) {
    const auto& m = messages[r % messages.size()];
    const TimePoint t0 = clock.now();
    if (!fixture.accepts(filter, m)) std::abort();
    const TimePoint t1 = clock.now();
    warm.add(to_millis(t1 - t0));
  }
  table.add_row("warm verify / msg" + suffix, warm);

  const double hit_rate = cache->stats().hit_rate();
  std::printf(
      "{\"bench\":\"token_cache\",\"counters\":{\"distinct_tokens\":%zu,"
      "\"hits\":%llu,\"misses\":%llu,\"hit_rate_pct\":%.2f}}\n",
      distinct_tokens,
      static_cast<unsigned long long>(cache->stats().hits),
      static_cast<unsigned long long>(cache->stats().misses),
      100.0 * hit_rate);
  return hit_rate;
}

/// Paper-style 3-broker TCP chain, cache off vs on.
void run_deployment(PaperTable& table) {
  const auto link = transport::LinkParams::tcp_profile();
  constexpr std::size_t kHops = 3;
  constexpr std::size_t kRounds = 40;

  for (const bool cached : {false, true}) {
    tracing::TracingConfig config = paper_config();
    config.verification.cache_capacity = cached ? 1024 : 0;

    Deployment dep(kHops, link, config);
    auto entity = dep.make_entity("traced-entity", 0);
    dep.start_tracing(*entity);
    auto tracker = dep.make_tracker("measuring-tracker", kHops - 1);
    Latch received;
    dep.track(*tracker, "traced-entity", tracing::kCatStateTransitions,
              [&](const tracing::TracePayload& p, const pubsub::Message&) {
                if (p.state) received.hit();
              });

    RunningStats stats =
        measure_state_trace_latency(dep, *entity, received, kRounds);
    table.add_row(cached ? "3 hops TCP, cache on" : "3 hops TCP, cache off",
                  stats);

    if (cached) {
      // Downstream brokers (1..H-1) verify every routed trace; the
      // hosting broker's own publications bypass its filter.
      std::uint64_t hits = 0, misses = 0, expired = 0;
      for (std::size_t i = 1; i < dep.broker_count(); ++i) {
        const auto& cache = dep.token_cache(i);
        if (!cache) continue;
        hits += cache->stats().hits;
        misses += cache->stats().misses;
        expired += cache->stats().expired;
      }
      const double rate =
          hits + misses + expired
              ? 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses + expired)
              : 0.0;
      std::printf(
          "{\"bench\":\"token_cache\",\"counters\":{\"deployment\":"
          "\"3hop_tcp\",\"hits\":%llu,\"misses\":%llu,\"expired\":%llu,"
          "\"hit_rate_pct\":%.2f}}\n",
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(misses),
          static_cast<unsigned long long>(expired), rate);
    }
    dep.net.stop();
  }
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E10: Per-hop token-verification cache (cold vs warm, hit rates)\n"
      "Units: milliseconds.\n");
  {
    et::bench::PaperTable table("Trace filter cost per message (direct)");
    et::bench::FilterMicro fixture;
    for (const std::size_t d : {1u, 10u, 100u}) {
      et::bench::run_micro(fixture, d, table);
    }
    table.print();
    table.print_json("token_cache");
  }
  {
    et::bench::PaperTable table(
        "End-to-end trace latency, 3-broker TCP chain");
    et::bench::run_deployment(table);
    table.print();
    table.print_json("token_cache");
  }
  return 0;
}
