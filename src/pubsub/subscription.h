// Subscription bookkeeping for one broker.
//
// A broker tracks two kinds of interest:
//   * local consumers — directly connected clients (and broker-local
//     services such as the tracing service) keyed by endpoint;
//   * remote interest — neighbouring brokers that propagated a pattern,
//     used by reverse-path forwarding over the (acyclic) broker overlay.
//
// Patterns are hierarchical topics with optional wildcards (see
// common/topic_path.h). Each pattern is split into segments once, at
// registration; matching walks precompiled patterns against a split-once
// TopicPath of the inbound topic.
//
// Scaling design (DESIGN.md §9): the table is sharded by the pattern's
// top-level segment and read through RCU-style snapshots.
//   * Readers — match/any_match/endpoint_matches, the per-message hot
//     path — load a std::shared_ptr to an immutable Snapshot with one
//     atomic operation and never take the write mutex. A topic can only
//     be matched by patterns in the shard of its first segment plus the
//     wildcard bucket (patterns starting with '*' or '#'), so a match
//     scans two buckets, not the whole table.
//   * Writers — subscribe/unsubscribe/disconnect, rare — serialize on a
//     mutex, copy only the affected shard(s), and publish a new snapshot.
//     Shards are shared between snapshots via shared_ptr, so a write
//     copies one shard, not the table.
// Readers therefore observe a coherent table as of some recent write,
// from any thread. Results are deterministic (sorted) regardless of shard
// hashing, keeping VirtualTimeNetwork runs bit-for-bit reproducible.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/atomic_shared_ptr.h"
#include "src/common/topic_path.h"
#include "src/transport/network.h"

namespace et::pubsub {

/// Interest registry mapping topic patterns to endpoints.
class SubscriptionTable {
 public:
  /// Shards 0..kShardCount-1 hold patterns keyed by their first segment;
  /// shard kShardCount is the wildcard bucket consulted on every match.
  static constexpr std::size_t kShardCount = 8;

  /// Immutable view of the whole table. All read queries live here; the
  /// table's own query methods are shorthands that grab the current
  /// snapshot first. Safe to use from any thread and stays valid (and
  /// unchanged) while held, even across concurrent writes.
  class Snapshot {
   public:
    /// All endpoints whose patterns match `topic` (deduplicated, sorted).
    [[nodiscard]] std::set<transport::NodeId> match(
        const TopicPath& topic) const;

    /// True when at least one pattern matches `topic`.
    [[nodiscard]] bool any_match(const TopicPath& topic) const;

    /// True when `endpoint` holds a subscription matching `topic`.
    [[nodiscard]] bool endpoint_matches(transport::NodeId endpoint,
                                        const TopicPath& topic) const;

    /// All patterns currently registered, sorted (for interest
    /// propagation to a newly joined neighbour).
    [[nodiscard]] std::vector<std::string> patterns() const;

    [[nodiscard]] std::size_t pattern_count() const { return count_; }

    struct Entry {
      std::string pattern;  // canonical form (sort key within a shard)
      TopicPath compiled;   // pattern split once at registration
      std::set<transport::NodeId> subs;
    };
    /// One shard, split by matching strategy. A pattern without wildcard
    /// segments can only match the one topic whose canonical form equals
    /// it, so exact patterns resolve by binary search on the topic
    /// string; only wildcard patterns are scanned. Trace workloads
    /// (UUID-specific publication topics, the paper's hot path) are
    /// almost entirely exact, so a match is O(log n) in the shard plus
    /// the handful of wildcard entries. Both vectors sorted by pattern.
    struct Shard {
      std::vector<Entry> exact;
      std::vector<Entry> wild;
    };

   private:
    friend class SubscriptionTable;

    /// The shards that can contain a pattern matching `topic`: the one
    /// hashed from its first segment, plus the wildcard bucket.
    [[nodiscard]] std::array<const Shard*, 2> candidate_shards(
        const TopicPath& topic) const;

    std::array<std::shared_ptr<const Shard>, kShardCount + 1> shards_;
    std::size_t count_ = 0;  // total registered patterns
  };

  SubscriptionTable();

  /// Adds interest; returns true when this is the pattern's first
  /// subscriber (the caller should then propagate interest upstream).
  bool add(const TopicPath& pattern, transport::NodeId endpoint);
  bool add(const std::string& pattern, transport::NodeId endpoint) {
    return add(TopicPath(pattern), endpoint);
  }

  /// Removes one endpoint's interest; returns true when the pattern has
  /// no subscribers left (caller should propagate the unsubscribe).
  bool remove(const TopicPath& pattern, transport::NodeId endpoint);
  bool remove(const std::string& pattern, transport::NodeId endpoint) {
    return remove(TopicPath(pattern), endpoint);
  }

  /// Drops every subscription held by `endpoint` (client disconnect).
  /// Returns the patterns that became empty, sorted.
  std::vector<std::string> remove_endpoint(transport::NodeId endpoint);

  /// Current snapshot; one atomic shared_ptr load, no lock. Hot paths
  /// that issue several queries against one message should take a single
  /// snapshot and query it.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const {
    return snap_.load(std::memory_order_acquire);
  }

  // Single-query shorthands over the current snapshot. Callers must pass
  // a compiled TopicPath — there are deliberately no string overloads, so
  // no call site can re-split a topic per query.
  [[nodiscard]] std::set<transport::NodeId> match(const TopicPath& t) const {
    return snapshot()->match(t);
  }
  [[nodiscard]] bool any_match(const TopicPath& t) const {
    return snapshot()->any_match(t);
  }
  [[nodiscard]] bool endpoint_matches(transport::NodeId endpoint,
                                      const TopicPath& t) const {
    return snapshot()->endpoint_matches(endpoint, t);
  }
  [[nodiscard]] std::vector<std::string> patterns() const {
    return snapshot()->patterns();
  }
  [[nodiscard]] std::size_t pattern_count() const {
    return snapshot()->pattern_count();
  }

 private:
  /// Shard index for a registered pattern (wildcard bucket when its first
  /// segment could match any top-level segment).
  static std::size_t shard_of_pattern(const TopicPath& pattern);

  std::mutex write_mu_;
  AtomicSharedPtr<const Snapshot> snap_;
};

}  // namespace et::pubsub
