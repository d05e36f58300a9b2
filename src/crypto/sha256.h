// SHA-256 message digest (FIPS 180-4).
//
// Offered alongside SHA-1 so callers can choose a modern digest for
// signatures; the paper-faithful benchmark configuration uses
// SHA-1, the extension benches compare both.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace et::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  void update(BytesView data);
  [[nodiscard]] Bytes finalize();
  void reset();

  /// One-shot convenience.
  static Bytes digest(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace et::crypto
