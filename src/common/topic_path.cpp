#include "src/common/topic_path.h"

namespace et {

std::uint64_t segment_hash(std::string_view segment) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64-bit offset basis
  for (const char c : segment) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }
  return h;
}

std::vector<std::string> split_topic(std::string_view topic) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= topic.size()) {
    const std::size_t slash = topic.find('/', start);
    const std::size_t end = (slash == std::string_view::npos) ? topic.size()
                                                              : slash;
    if (end > start) {
      out.emplace_back(topic.substr(start, end - start));
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  return out;
}

std::string join_topic(const std::vector<std::string>& segments) {
  std::string out;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i) out.push_back('/');
    out += segments[i];
  }
  return out;
}

std::string normalize_topic(std::string_view topic) {
  return join_topic(split_topic(topic));
}

bool topic_has_prefix(std::string_view topic, std::string_view prefix) {
  const auto t = split_topic(topic);
  const auto p = split_topic(prefix);
  if (p.size() > t.size()) return false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (t[i] != p[i]) return false;
  }
  return true;
}

bool has_wildcard_segment(const TopicPath& pattern) {
  for (const auto& seg : pattern.segments()) {
    if (is_wildcard_segment(seg)) return true;
  }
  return false;
}

bool topic_matches(const TopicPath& pattern, const TopicPath& topic) {
  const auto& p = pattern.segments();
  const auto& t = topic.segments();
  std::size_t i = 0;
  for (; i < p.size(); ++i) {
    if (p[i] == "#") {
      // Multi-segment wildcard is only meaningful as the final segment;
      // it matches the remainder (possibly empty).
      return i + 1 == p.size();
    }
    if (i >= t.size()) return false;
    if (p[i] == "*") continue;
    if (p[i] != t[i]) return false;
  }
  return i == t.size();
}

bool topic_matches(std::string_view pattern, std::string_view topic) {
  return topic_matches(TopicPath(pattern), TopicPath(topic));
}

bool is_valid_topic(std::string_view topic) {
  const auto segs = split_topic(topic);
  if (segs.empty()) return false;
  for (const auto& s : segs) {
    for (char c : s) {
      if (c <= ' ' || c > '~') return false;  // control, space or non-ASCII
    }
  }
  return true;
}

}  // namespace et
