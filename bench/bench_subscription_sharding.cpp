// E11 — sharded subscription table vs the legacy std::map table.
//
// Table microbench (DESIGN.md §9): the sharded snapshot table vs the
// previous std::map implementation (reproduced below as LegacyMapTable),
// single-threaded match cost across pattern counts and two workloads.
// "exact" is the paper's trace workload — wildcard-free UUID topics —
// where the sharded table resolves matches by binary search instead of a
// scan. "wildcard" keeps every pattern on the scan path: the sharded
// table's worst case (every pattern under one top-level segment).
//
// Emits the human-readable table of the other benches plus one JSON
// object per table/counter set (see PaperTable::print_json) so a
// BENCH_subscription_sharding trajectory can be tracked across PRs.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/pubsub/subscription.h"

namespace et::bench {
namespace {

/// The pre-sharding SubscriptionTable, reproduced as the baseline: one
/// std::map over all patterns, every match walks every entry.
class LegacyMapTable {
 public:
  void add(const std::string& pattern, transport::NodeId endpoint) {
    auto [it, inserted] = entries_.try_emplace(normalize_topic(pattern));
    if (inserted) it->second.compiled = TopicPath(it->first);
    it->second.subs.insert(endpoint);
  }

  [[nodiscard]] std::set<transport::NodeId> match(
      const TopicPath& topic) const {
    std::set<transport::NodeId> out;
    for (const auto& [pattern, e] : entries_) {
      if (topic_matches(e.compiled, topic)) {
        out.insert(e.subs.begin(), e.subs.end());
      }
    }
    return out;
  }

 private:
  struct Entry {
    TopicPath compiled;
    std::set<transport::NodeId> subs;
  };
  std::map<std::string, Entry> entries_;
};

/// Trace-like patterns: all under one top-level segment ("Constrained"),
/// which concentrates the whole population in a single shard — the
/// sharded table's worst case, so the comparison is honest. The exact
/// workload subscribes to a specific action per trace topic; the
/// wildcard workload subscribes to all actions under each trace topic,
/// which forces the scan path.
std::vector<std::string> make_patterns(std::size_t count, bool wildcard,
                                       Rng& rng) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back("Constrained/Traces/Broker/Publish-Only/" +
                  Uuid::generate(rng).to_string() +
                  (wildcard ? "/*" : "/AllUpdates"));
  }
  return out;
}

struct MicroResult {
  double sharded_us = 0;  // mean per match
  double legacy_us = 0;
};

MicroResult run_table_micro(std::size_t pattern_count, bool wildcard,
                            PaperTable& table) {
  Rng rng(77);
  const auto patterns = make_patterns(pattern_count, wildcard, rng);
  pubsub::SubscriptionTable sharded;
  LegacyMapTable legacy;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const auto endpoint = static_cast<transport::NodeId>(i + 1);
    sharded.add(patterns[i], endpoint);
    legacy.add(patterns[i], endpoint);
  }
  // Probes: alternate a hit (matches exactly one pattern) and a miss
  // (same shape, unknown UUID — walks the same candidate entries).
  std::vector<TopicPath> probes;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string& pat = patterns[(i * 7919) % patterns.size()];
    probes.emplace_back(
        wildcard ? pat.substr(0, pat.size() - 1) + "AllUpdates" : pat);
    probes.emplace_back("Constrained/Traces/Broker/Publish-Only/" +
                        Uuid::generate(rng).to_string() + "/AllUpdates");
  }

  constexpr std::size_t kRounds = 12;
  const std::size_t per_round =
      std::max<std::size_t>(64, 262144 / pattern_count);
  SystemClock clock;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
  const char* workload = wildcard ? "wildcard" : "exact";
  const std::string suffix = std::string(" (") + workload + ", " +
                             std::to_string(pattern_count) + " pat)";

  RunningStats sharded_stats;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const TimePoint t0 = clock.now();
    for (std::size_t i = 0; i < per_round; ++i) {
      checksum += sharded.match(probes[i % probes.size()]).size();
    }
    const TimePoint t1 = clock.now();
    sharded_stats.add(to_millis(t1 - t0) / static_cast<double>(per_round));
  }
  table.add_row("sharded match / msg" + suffix, sharded_stats);

  RunningStats legacy_stats;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const TimePoint t0 = clock.now();
    for (std::size_t i = 0; i < per_round; ++i) {
      checksum += legacy.match(probes[i % probes.size()]).size();
    }
    const TimePoint t1 = clock.now();
    legacy_stats.add(to_millis(t1 - t0) / static_cast<double>(per_round));
  }
  table.add_row("legacy map match / msg" + suffix, legacy_stats);

  const MicroResult res{sharded_stats.mean() * 1000.0,
                        legacy_stats.mean() * 1000.0};
  std::printf(
      "{\"bench\":\"subscription_sharding\",\"counters\":{"
      "\"workload\":\"%s\",\"patterns\":%zu,"
      "\"sharded_us\":%.3f,\"legacy_us\":%.3f,"
      "\"single_thread_ratio\":%.4f,\"checksum\":%llu}}\n",
      workload, pattern_count, res.sharded_us, res.legacy_us,
      res.legacy_us > 0 ? res.sharded_us / res.legacy_us : 0.0,
      static_cast<unsigned long long>(checksum));
  return res;
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E11: Sharded subscription table vs legacy std::map\n"
      "Units: milliseconds.\n");
  {
    et::bench::PaperTable table(
        "Single-threaded match cost, sharded vs legacy std::map");
    for (const std::size_t n : {64u, 256u, 1024u, 4096u}) {
      et::bench::run_table_micro(n, /*wildcard=*/false, table);
    }
    for (const std::size_t n : {64u, 256u, 1024u, 4096u}) {
      et::bench::run_table_micro(n, /*wildcard=*/true, table);
    }
    table.print();
    table.print_json("subscription_sharding");
  }
  return 0;
}
