#include "src/crypto/aes.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace et::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) ? 0x1b : 0x00));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// A state column or key word is one big-endian 32-bit word: row 0 in the
// top byte.
constexpr std::uint32_t pack(std::uint8_t b0, std::uint8_t b1,
                             std::uint8_t b2, std::uint8_t b3) {
  return static_cast<std::uint32_t>(b0) << 24 |
         static_cast<std::uint32_t>(b1) << 16 |
         static_cast<std::uint32_t>(b2) << 8 | b3;
}

constexpr std::uint8_t byte_of(std::uint32_t w, int row) {
  return static_cast<std::uint8_t>(w >> (24 - 8 * row));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return pack(p[0], p[1], p[2], p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t w) {
  for (int row = 0; row < 4; ++row) p[row] = byte_of(w, row);
}

// T-tables: te[r][x] is the MixColumns image of a column holding S[x] in
// row r and zeros elsewhere, so a round is 16 lookups and 16 XORs per
// block. td[r][x] does the same for InvS[x] and InvMixColumns. Table r is
// table 0 rotated right by 8r bits. Built at compile time from the
// S-boxes above. The lookups are key- and data-dependent, so they leak
// through cache timing (not side-channel hardened).
struct RoundTables {
  std::uint32_t te[4][256];
  std::uint32_t td[4][256];
};

constexpr RoundTables make_round_tables() {
  RoundTables t{};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t si = kInvSbox[x];
    const std::uint32_t e = pack(gmul(s, 2), s, s, gmul(s, 3));
    const std::uint32_t d =
        pack(gmul(si, 14), gmul(si, 9), gmul(si, 13), gmul(si, 11));
    for (int r = 0; r < 4; ++r) {
      t.te[r][x] = std::rotr(e, 8 * r);
      t.td[r][x] = std::rotr(d, 8 * r);
    }
  }
  return t;
}

constexpr RoundTables kTables = make_round_tables();

std::uint32_t sub_word(std::uint32_t w) {
  return pack(kSbox[byte_of(w, 0)], kSbox[byte_of(w, 1)],
              kSbox[byte_of(w, 2)], kSbox[byte_of(w, 3)]);
}

// InvMixColumns of one word: td[r][S[b]] is InvMixColumns of byte b in
// row r, since InvSubBytes undoes the S-box.
std::uint32_t inv_mix_column(std::uint32_t w) {
  return kTables.td[0][kSbox[byte_of(w, 0)]] ^
         kTables.td[1][kSbox[byte_of(w, 1)]] ^
         kTables.td[2][kSbox[byte_of(w, 2)]] ^
         kTables.td[3][kSbox[byte_of(w, 3)]];
}

}  // namespace

Aes::Aes(BytesView key) {
  const std::size_t nk = key.size() / 4;  // words in key
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16, 24 or 32 bytes");
  }
  key_bits_ = key.size() * 8;
  rounds_ = nk + 6;

  // Key expansion (FIPS 197 §5.2) into (rounds_+1)*4 words.
  const std::size_t total_words = (rounds_ + 1) * 4;
  for (std::size_t i = 0; i < nk; ++i) enc_keys_[i] = load_be32(&key[4 * i]);
  std::uint8_t rcon = 0x01;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = enc_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(std::rotl(temp, 8)) ^ pack(rcon, 0, 0, 0);
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    enc_keys_[i] = enc_keys_[i - nk] ^ temp;
  }

  // Equivalent inverse cipher (FIPS 197 §5.3.5): round keys in reverse
  // order, InvMixColumns applied to all but the first and the last.
  for (std::size_t round = 0; round <= rounds_; ++round) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::uint32_t w = enc_keys_[(rounds_ - round) * 4 + c];
      dec_keys_[round * 4 + c] =
          (round == 0 || round == rounds_) ? w : inv_mix_column(w);
    }
  }
}

void Aes::encrypt_block(std::uint8_t block[16]) const {
  const auto& te = kTables.te;
  const std::uint32_t* rk = enc_keys_.data();
  std::uint32_t s0 = load_be32(block) ^ rk[0];
  std::uint32_t s1 = load_be32(block + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(block + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(block + 12) ^ rk[3];
  // SubBytes + ShiftRows + MixColumns + AddRoundKey: column c takes row r
  // from column c + r.
  for (std::size_t round = 1; round < rounds_; ++round) {
    rk += 4;
    const std::uint32_t t0 = te[0][byte_of(s0, 0)] ^ te[1][byte_of(s1, 1)] ^
                             te[2][byte_of(s2, 2)] ^ te[3][byte_of(s3, 3)] ^
                             rk[0];
    const std::uint32_t t1 = te[0][byte_of(s1, 0)] ^ te[1][byte_of(s2, 1)] ^
                             te[2][byte_of(s3, 2)] ^ te[3][byte_of(s0, 3)] ^
                             rk[1];
    const std::uint32_t t2 = te[0][byte_of(s2, 0)] ^ te[1][byte_of(s3, 1)] ^
                             te[2][byte_of(s0, 2)] ^ te[3][byte_of(s1, 3)] ^
                             rk[2];
    const std::uint32_t t3 = te[0][byte_of(s3, 0)] ^ te[1][byte_of(s0, 1)] ^
                             te[2][byte_of(s1, 2)] ^ te[3][byte_of(s2, 3)] ^
                             rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // Final round: no MixColumns.
  rk += 4;
  auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d) {
    return pack(kSbox[byte_of(a, 0)], kSbox[byte_of(b, 1)],
                kSbox[byte_of(c, 2)], kSbox[byte_of(d, 3)]);
  };
  store_be32(block, last(s0, s1, s2, s3) ^ rk[0]);
  store_be32(block + 4, last(s1, s2, s3, s0) ^ rk[1]);
  store_be32(block + 8, last(s2, s3, s0, s1) ^ rk[2]);
  store_be32(block + 12, last(s3, s0, s1, s2) ^ rk[3]);
}

void Aes::decrypt_block(std::uint8_t block[16]) const {
  const auto& td = kTables.td;
  const std::uint32_t* rk = dec_keys_.data();
  std::uint32_t s0 = load_be32(block) ^ rk[0];
  std::uint32_t s1 = load_be32(block + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(block + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(block + 12) ^ rk[3];
  // InvSubBytes + InvShiftRows + InvMixColumns + AddRoundKey: column c
  // takes row r from column c - r.
  for (std::size_t round = 1; round < rounds_; ++round) {
    rk += 4;
    const std::uint32_t t0 = td[0][byte_of(s0, 0)] ^ td[1][byte_of(s3, 1)] ^
                             td[2][byte_of(s2, 2)] ^ td[3][byte_of(s1, 3)] ^
                             rk[0];
    const std::uint32_t t1 = td[0][byte_of(s1, 0)] ^ td[1][byte_of(s0, 1)] ^
                             td[2][byte_of(s3, 2)] ^ td[3][byte_of(s2, 3)] ^
                             rk[1];
    const std::uint32_t t2 = td[0][byte_of(s2, 0)] ^ td[1][byte_of(s1, 1)] ^
                             td[2][byte_of(s0, 2)] ^ td[3][byte_of(s3, 3)] ^
                             rk[2];
    const std::uint32_t t3 = td[0][byte_of(s3, 0)] ^ td[1][byte_of(s2, 1)] ^
                             td[2][byte_of(s1, 2)] ^ td[3][byte_of(s0, 3)] ^
                             rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // Final round: no InvMixColumns.
  rk += 4;
  auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d) {
    return pack(kInvSbox[byte_of(a, 0)], kInvSbox[byte_of(b, 1)],
                kInvSbox[byte_of(c, 2)], kInvSbox[byte_of(d, 3)]);
  };
  store_be32(block, last(s0, s3, s2, s1) ^ rk[0]);
  store_be32(block + 4, last(s1, s0, s3, s2) ^ rk[1]);
  store_be32(block + 8, last(s2, s1, s0, s3) ^ rk[2]);
  store_be32(block + 12, last(s3, s2, s1, s0) ^ rk[3]);
}

Bytes aes_cbc_encrypt(const Aes& cipher, BytesView plaintext, Rng& rng) {
  constexpr std::size_t kBlock = Aes::kBlockSize;
  // PKCS#7 pad.
  const std::size_t pad = kBlock - (plaintext.size() % kBlock);
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  Bytes out = rng.next_bytes(kBlock);  // IV
  out.reserve(kBlock + padded.size());

  std::uint8_t prev[kBlock];
  std::memcpy(prev, out.data(), kBlock);
  for (std::size_t off = 0; off < padded.size(); off += kBlock) {
    std::uint8_t block[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i] = static_cast<std::uint8_t>(padded[off + i] ^ prev[i]);
    }
    cipher.encrypt_block(block);
    out.insert(out.end(), block, block + kBlock);
    std::memcpy(prev, block, kBlock);
  }
  return out;
}

Bytes aes_cbc_decrypt(const Aes& cipher, BytesView ciphertext) {
  constexpr std::size_t kBlock = Aes::kBlockSize;
  if (ciphertext.size() < 2 * kBlock || ciphertext.size() % kBlock != 0) {
    throw std::invalid_argument("aes_cbc_decrypt: bad ciphertext length");
  }
  // Block i decrypts against ciphertext block i - 1 (the IV for i = 0).
  Bytes out(ciphertext.size() - kBlock);
  for (std::size_t off = 0; off < out.size(); off += kBlock) {
    std::uint8_t* block = out.data() + off;
    std::memcpy(block, ciphertext.data() + kBlock + off, kBlock);
    cipher.decrypt_block(block);
    for (std::size_t i = 0; i < kBlock; ++i) block[i] ^= ciphertext[off + i];
  }

  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kBlock) {
    throw std::invalid_argument("aes_cbc_decrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      throw std::invalid_argument("aes_cbc_decrypt: bad padding");
    }
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace et::crypto
