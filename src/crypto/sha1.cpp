#include "src/crypto/sha1.h"

#include <bit>
#include <cstring>
#include <utility>

namespace et::crypto {

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Bytes Sha1::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding, in place: 0x80, zeros to 56 mod 64, then the 64-bit
  // big-endian length (one extra block when the 0x80 lands past byte 55).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  process_block(buffer_.data());
  buffer_len_ = 0;

  Bytes out(kDigestSize);
  for (std::size_t i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Bytes Sha1::digest(BytesView data) {
  Sha1 h;
  h.update(data);
  return h.finalize();
}

namespace {

/// Round `t` of the compression function, fully resolved at compile time:
/// the round function and constant by stage, the schedule word from a
/// 16-word ring (W[t] overwrites W[t-16] in place), and the working
/// variables by slot. Instead of shifting a..e down after each round,
/// the roles rotate through v[]: `a` lives in slot (5 - t % 5) % 5, and
/// the value a round computes lands in the slot the next round reads as
/// `a`. Unrolled over t, the slots stay in registers and no round
/// branches or moves.
template <int t>
[[gnu::always_inline]] inline void sha1_round(std::uint32_t (&v)[5],
                                              std::uint32_t (&w)[16]) {
  constexpr int r = t % 5;
  const std::uint32_t a = v[(5 - r) % 5];
  std::uint32_t& b = v[(6 - r) % 5];
  const std::uint32_t c = v[(7 - r) % 5];
  const std::uint32_t d = v[(8 - r) % 5];
  std::uint32_t& e = v[(9 - r) % 5];
  if constexpr (t >= 16) {
    w[t & 15] = std::rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^
                              w[(t + 2) & 15] ^ w[t & 15],
                          1);
  }
  std::uint32_t f, k;
  if constexpr (t < 20) {
    f = d ^ (b & (c ^ d));  // Ch(b, c, d)
    k = 0x5A827999u;
  } else if constexpr (t < 40) {
    f = b ^ c ^ d;
    k = 0x6ED9EBA1u;
  } else if constexpr (t < 60) {
    f = (b & c) | (d & (b | c));  // Maj(b, c, d)
    k = 0x8F1BBCDCu;
  } else {
    f = b ^ c ^ d;
    k = 0xCA62C1D6u;
  }
  e += std::rotl(a, 5) + f + k + w[t & 15];
  b = std::rotl(b, 30);
}

}  // namespace

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
           (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[t * 4 + 3]);
  }
  std::uint32_t v[5] = {h_[0], h_[1], h_[2], h_[3], h_[4]};
  [&]<int... t>(std::integer_sequence<int, t...>) {
    (sha1_round<t>(v, w), ...);
  }(std::make_integer_sequence<int, 80>{});
  // 80 rounds rotate the roles 16 full turns: a..e are back in slots 0..4.
  for (int i = 0; i < 5; ++i) h_[i] += v[i];
}

}  // namespace et::crypto
