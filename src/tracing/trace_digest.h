// Coalesced availability digests (DESIGN.md §14).
//
// Co-hosted entities share one heartbeat cadence: instead of the hosting
// broker publishing N per-entity ALLS_WELL traces per round, it folds the
// round's plain heartbeats into the host's pending `TraceDigest`, signs
// and (optionally) encrypts it once, and publishes it on the host's Digest
// kind topic.
//
// A digest carries no per-member records. Each folded ping response
// contributes one liveness bitmap over the host's roster (bit i, LSB
// first, is roster member i), so a 512-member round costs 64 bytes. The
// roster itself — the member ids in bit order — is named by an epoch that
// is unique to the hosting session, and rides inside the signed body only
// when the digest owes it: on the session's first digest, and on the next
// digest after a tracker reported that it lacks the current epoch. The
// tracker edge caches the roster per trace topic and expands every set bit
// back into a per-entity ALLS_WELL, so tracker-facing semantics are
// unchanged; a digest whose epoch it holds no roster for is skipped, never
// guessed at. Urgent traces (suspicions, failures, recoveries, state
// transitions) never ride a digest; they are published at the end of the
// current event-loop pass, batched with that session's other traces from
// the same pass, after any pending digest for the host is flushed so
// ordering is preserved.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"

namespace et::tracing {

/// A signed batch of one host's plain heartbeats.
struct TraceDigest {
  std::string host_id;
  TimePoint issued_at = 0;
  /// Names the hosting session's roster; never 0 (0 means "none").
  std::uint64_t epoch = 0;
  /// Roster size: the width in bits of every bitmap.
  std::uint32_t members = 0;
  /// The roster's member ids in bit order; empty unless this digest
  /// carries the roster (then it holds exactly `members` ids).
  std::vector<std::string> roster;
  /// One bitmap of bitmap_bytes() per folded ping response, back to back.
  /// Padding bits past `members` are zero.
  Bytes bitmaps;

  [[nodiscard]] std::size_t bitmap_bytes() const {
    return (static_cast<std::size_t>(members) + 7) / 8;
  }
  [[nodiscard]] std::size_t bitmap_count() const {
    return members == 0 ? 0 : bitmaps.size() / bitmap_bytes();
  }

  /// Calls `fn(i)` for every set bit, bitmap by bitmap, in bit order: the
  /// roster index of each observation, in the order it was made.
  template <typename Fn>
  void for_each_observation(Fn&& fn) const {
    const std::size_t width = bitmap_bytes();
    for (std::size_t k = 0; k < bitmaps.size(); ++k) {
      const std::size_t base = (k % width) * 8;
      for (unsigned bits = bitmaps[k]; bits != 0; bits &= bits - 1) {
        fn(base + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  [[nodiscard]] Bytes serialize() const;
  /// Throws SerializeError on malformed input: a zero epoch or roster
  /// size, a roster or bitmap count the remaining bytes cannot hold, or a
  /// set padding bit.
  static TraceDigest deserialize(BytesView b);

  friend bool operator==(const TraceDigest&, const TraceDigest&) = default;
};

}  // namespace et::tracing
