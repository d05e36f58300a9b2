// Hierarchical "/"-separated topic paths.
//
// Topics in the publish/subscribe substrate are strings like
// `StockQuotes/Companies/Adobe` or
// `/Constrained/Traces/Broker/Publish-Only/<uuid>/ChangeNotifications`.
// This module provides splitting, joining, normalization and prefix /
// wildcard matching. The constrained-topic *grammar* (element defaults,
// allowed actions) lives in src/pubsub/constrained_topic.h; this file is
// pure string mechanics.
//
// Hot-path note: matching a topic against N registered patterns used to
// re-split the topic string N times. `TopicPath` is the split-once form —
// brokers parse each inbound topic (and each registered pattern) exactly
// once and match segment vectors from then on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace et {

/// Wildcard segment literals recognized by topic_matches.
inline constexpr std::string_view kSingleLevelWildcard = "*";
inline constexpr std::string_view kMultiLevelWildcard = "#";

/// True when `segment` is one of the wildcard literals. A pattern whose
/// FIRST segment is a wildcard can match topics under any top-level
/// segment, which is what decides wildcard-bucket placement in sharded
/// subscription tables.
[[nodiscard]] inline bool is_wildcard_segment(std::string_view segment) {
  return segment == kSingleLevelWildcard || segment == kMultiLevelWildcard;
}

/// Deterministic FNV-1a hash of one topic segment. Stable across runs,
/// platforms and library versions (unlike std::hash), so structures
/// sharded on it — and any execution order derived from them — stay
/// reproducible in the deterministic virtual-time simulations.
[[nodiscard]] std::uint64_t segment_hash(std::string_view segment);

/// Splits on '/', dropping empty segments (so a leading '/' is ignored and
/// `a//b` equals `a/b`).
std::vector<std::string> split_topic(std::string_view topic);

/// Joins segments with '/' (no leading slash).
std::string join_topic(const std::vector<std::string>& segments);

/// Canonical form: segments joined with '/', no leading/trailing slash.
std::string normalize_topic(std::string_view topic);

/// A topic (or subscription pattern) split into segments exactly once.
/// Equal topics have equal segment vectors regardless of leading/doubled
/// slashes in the source string.
class TopicPath {
 public:
  TopicPath() = default;
  explicit TopicPath(std::string_view topic) : segments_(split_topic(topic)) {}
  explicit TopicPath(std::vector<std::string> segments)
      : segments_(std::move(segments)) {}

  [[nodiscard]] const std::vector<std::string>& segments() const {
    return segments_;
  }
  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] const std::string& operator[](std::size_t i) const {
    return segments_[i];
  }

  /// Canonical string form (equals normalize_topic of the source).
  [[nodiscard]] std::string canonical() const { return join_topic(segments_); }

  friend bool operator==(const TopicPath&, const TopicPath&) = default;

 private:
  std::vector<std::string> segments_;
};

/// True when `topic` equals or is hierarchically below `prefix`
/// (segment-wise; "a/b" is under "a", "ab" is not).
bool topic_has_prefix(std::string_view topic, std::string_view prefix);

/// Subscription matching with wildcards:
///   `*`  matches exactly one segment,
///   `#`  (only as the last segment) matches zero or more segments.
/// Exact segments match case-sensitively.
bool topic_matches(const TopicPath& pattern, const TopicPath& topic);

/// True when any segment of `pattern` is a wildcard. A wildcard-free
/// pattern matches exactly the one topic whose canonical form equals it,
/// which is what lets match indexes look such patterns up instead of
/// scanning them.
[[nodiscard]] bool has_wildcard_segment(const TopicPath& pattern);
bool topic_matches(std::string_view pattern, std::string_view topic);

/// True when every segment is non-empty printable ASCII without whitespace.
bool is_valid_topic(std::string_view topic);

}  // namespace et
