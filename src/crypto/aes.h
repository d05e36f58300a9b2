// AES block cipher (FIPS 197) with CBC mode and PKCS#7 padding.
//
// The paper secures trace payloads with "192-bit AES keys" (§6.1); this
// implementation supports 128/192/256-bit keys. CBC ciphertexts carry the
// random IV as their first block. Rounds run on 32-bit T-tables, and
// decryption uses the equivalent inverse cipher. Table lookups leak
// through cache timing: not side-channel hardened (see the crypto
// disclaimer in DESIGN.md).
#pragma once

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace et::crypto {

/// Raw AES block cipher over 16-byte blocks.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes; throws std::invalid_argument otherwise.
  explicit Aes(BytesView key);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::uint8_t block[16]) const;
  /// Decrypts one 16-byte block in place.
  void decrypt_block(std::uint8_t block[16]) const;

  [[nodiscard]] std::size_t key_bits() const { return key_bits_; }

 private:
  std::size_t rounds_;
  std::size_t key_bits_;
  // Big-endian key words; AES-256 has 15 round keys of 4 words.
  std::array<std::uint32_t, 60> enc_keys_{};
  // Equivalent-inverse-cipher schedule (FIPS 197 §5.3.5).
  std::array<std::uint32_t, 60> dec_keys_{};
};

/// CBC + PKCS#7 encryption. Output = IV || ciphertext. IV drawn from `rng`.
Bytes aes_cbc_encrypt(const Aes& cipher, BytesView plaintext, Rng& rng);

/// CBC + PKCS#7 decryption of a buffer produced by aes_cbc_encrypt.
/// Throws std::invalid_argument on bad length or padding (treat as tamper).
Bytes aes_cbc_decrypt(const Aes& cipher, BytesView ciphertext);

}  // namespace et::crypto
