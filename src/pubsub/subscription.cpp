#include "src/pubsub/subscription.h"

#include <algorithm>

namespace et::pubsub {

namespace {

using Entry = SubscriptionTable::Snapshot::Entry;

struct ByPattern {
  bool operator()(const Entry& e, const std::string& p) const {
    return e.pattern < p;
  }
};

const Entry* find_exact(const std::vector<Entry>& sorted,
                        const std::string& canon) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), canon, ByPattern{});
  if (it != sorted.end() && it->pattern == canon) return &*it;
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot (read path)

std::array<const SubscriptionTable::Snapshot::Shard*, 2>
SubscriptionTable::Snapshot::candidate_shards(const TopicPath& topic) const {
  const Shard* wildcard = shards_[kShardCount].get();
  if (topic.empty()) {
    // Only patterns like "#" (wildcard bucket) can match an empty topic.
    return {wildcard, nullptr};
  }
  const std::size_t i = segment_hash(topic[0]) % kShardCount;
  return {shards_[i].get(), wildcard};
}

std::set<transport::NodeId> SubscriptionTable::Snapshot::match(
    const TopicPath& topic) const {
  std::set<transport::NodeId> out;
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    if (const Entry* e = find_exact(shard->exact, canon)) {
      out.insert(e->subs.begin(), e->subs.end());
    }
    for (const Entry& e : shard->wild) {
      if (topic_matches(e.compiled, topic)) {
        out.insert(e.subs.begin(), e.subs.end());
      }
    }
  }
  return out;
}

bool SubscriptionTable::Snapshot::any_match(const TopicPath& topic) const {
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    if (find_exact(shard->exact, canon) != nullptr) return true;
    for (const Entry& e : shard->wild) {
      if (topic_matches(e.compiled, topic)) return true;
    }
  }
  return false;
}

bool SubscriptionTable::Snapshot::endpoint_matches(
    transport::NodeId endpoint, const TopicPath& topic) const {
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    const Entry* e = find_exact(shard->exact, canon);
    if (e != nullptr && e->subs.contains(endpoint)) return true;
    for (const Entry& w : shard->wild) {
      if (w.subs.contains(endpoint) && topic_matches(w.compiled, topic)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::string> SubscriptionTable::Snapshot::patterns() const {
  std::vector<std::string> out;
  out.reserve(count_);
  for (const auto& shard : shards_) {
    for (const Entry& e : shard->exact) out.push_back(e.pattern);
    for (const Entry& e : shard->wild) out.push_back(e.pattern);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Table (write path)

SubscriptionTable::SubscriptionTable() {
  auto snap = std::make_shared<Snapshot>();
  const auto empty = std::make_shared<const Snapshot::Shard>();
  for (auto& shard : snap->shards_) shard = empty;
  snap_.store(std::move(snap), std::memory_order_release);
}

std::size_t SubscriptionTable::shard_of_pattern(const TopicPath& pattern) {
  if (pattern.empty() || is_wildcard_segment(pattern[0])) return kShardCount;
  return segment_hash(pattern[0]) % kShardCount;
}

bool SubscriptionTable::add(const TopicPath& pattern,
                            transport::NodeId endpoint) {
  std::lock_guard lock(write_mu_);
  const auto cur = snap_.load(std::memory_order_relaxed);
  auto next = std::make_shared<Snapshot>(*cur);  // shares all shards

  const std::size_t si = shard_of_pattern(pattern);
  auto shard = std::make_shared<Snapshot::Shard>(*next->shards_[si]);
  std::vector<Entry>& vec =
      has_wildcard_segment(pattern) ? shard->wild : shard->exact;
  std::string canon = pattern.canonical();
  auto it = std::lower_bound(vec.begin(), vec.end(), canon, ByPattern{});
  bool first = false;
  if (it == vec.end() || it->pattern != canon) {
    vec.insert(it, Entry{std::move(canon), pattern, {endpoint}});
    ++next->count_;
    first = true;
  } else {
    first = it->subs.empty();
    it->subs.insert(endpoint);
  }
  next->shards_[si] = std::move(shard);
  snap_.store(std::move(next), std::memory_order_release);
  return first;
}

bool SubscriptionTable::remove(const TopicPath& pattern,
                               transport::NodeId endpoint) {
  std::lock_guard lock(write_mu_);
  const auto cur = snap_.load(std::memory_order_relaxed);

  const std::size_t si = shard_of_pattern(pattern);
  const std::string canon = pattern.canonical();
  const bool wild = has_wildcard_segment(pattern);
  const Snapshot::Shard& old_shard = *cur->shards_[si];
  const std::vector<Entry>& old_vec = wild ? old_shard.wild : old_shard.exact;
  auto found =
      std::lower_bound(old_vec.begin(), old_vec.end(), canon, ByPattern{});
  if (found == old_vec.end() || found->pattern != canon) return false;

  auto next = std::make_shared<Snapshot>(*cur);
  auto shard = std::make_shared<Snapshot::Shard>(old_shard);
  std::vector<Entry>& vec = wild ? shard->wild : shard->exact;
  auto it = vec.begin() + (found - old_vec.begin());
  it->subs.erase(endpoint);
  bool emptied = false;
  if (it->subs.empty()) {
    vec.erase(it);
    --next->count_;
    emptied = true;
  }
  next->shards_[si] = std::move(shard);
  snap_.store(std::move(next), std::memory_order_release);
  return emptied;
}

std::vector<std::string> SubscriptionTable::remove_endpoint(
    transport::NodeId endpoint) {
  std::lock_guard lock(write_mu_);
  const auto cur = snap_.load(std::memory_order_relaxed);
  auto next = std::make_shared<Snapshot>(*cur);

  const auto holds_endpoint = [&](const Entry& e) {
    return e.subs.contains(endpoint);
  };
  std::vector<std::string> emptied;
  for (auto& shard_ptr : next->shards_) {
    const bool touched =
        std::any_of(shard_ptr->exact.begin(), shard_ptr->exact.end(),
                    holds_endpoint) ||
        std::any_of(shard_ptr->wild.begin(), shard_ptr->wild.end(),
                    holds_endpoint);
    if (!touched) continue;
    auto shard = std::make_shared<Snapshot::Shard>(*shard_ptr);
    for (std::vector<Entry>* vec : {&shard->exact, &shard->wild}) {
      for (auto it = vec->begin(); it != vec->end();) {
        it->subs.erase(endpoint);
        if (it->subs.empty()) {
          emptied.push_back(it->pattern);
          it = vec->erase(it);
          --next->count_;
        } else {
          ++it;
        }
      }
    }
    shard_ptr = std::move(shard);
  }
  snap_.store(std::move(next), std::memory_order_release);
  std::sort(emptied.begin(), emptied.end());
  return emptied;
}

}  // namespace et::pubsub
