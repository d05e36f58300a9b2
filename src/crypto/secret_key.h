// Symmetric secret keys with attached algorithm metadata.
//
// §5.1: "the entity is first responsible for the generation of a secret
// symmetric key ... the entity then securely routes this secret key, along
// with information about the encryption algorithm and padding scheme, to
// the broker". `SecretKey` bundles exactly those three things and provides
// the encrypt/decrypt operations traces use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace et::crypto {

class Aes;

/// Symmetric cipher selection (all AES/CBC; key size varies).
enum class SymmetricAlg : std::uint8_t {
  kAes128Cbc = 1,
  kAes192Cbc = 2,  // paper default (192-bit AES, §6.1)
  kAes256Cbc = 3,
};

/// Padding scheme carried alongside the key (§5.1). Only PKCS#7 is
/// implemented; the field exists so the key-distribution payload matches
/// the paper's contents.
enum class PaddingScheme : std::uint8_t { kPkcs7 = 1 };

std::string symmetric_alg_name(SymmetricAlg alg);
std::size_t symmetric_key_len(SymmetricAlg alg);

/// Key material + algorithm + padding, serializable for key distribution.
/// The AES key schedule is expanded once, when the key is made, and shared
/// by its copies.
class SecretKey {
 public:
  SecretKey() = default;

  /// Fresh random key for `alg`.
  static SecretKey generate(Rng& rng, SymmetricAlg alg = SymmetricAlg::kAes192Cbc);

  /// From existing material; length must match the algorithm.
  static SecretKey from_material(Bytes material, SymmetricAlg alg,
                                 PaddingScheme padding = PaddingScheme::kPkcs7);

  /// AES-CBC encrypt (IV prepended).
  [[nodiscard]] Bytes encrypt(BytesView plaintext, Rng& rng) const;
  /// AES-CBC decrypt; throws std::invalid_argument on bad padding/length.
  [[nodiscard]] Bytes decrypt(BytesView ciphertext) const;

  [[nodiscard]] SymmetricAlg algorithm() const { return alg_; }
  [[nodiscard]] PaddingScheme padding() const { return padding_; }
  [[nodiscard]] const Bytes& material() const { return material_; }
  [[nodiscard]] bool empty() const { return material_.empty(); }

  [[nodiscard]] Bytes serialize() const;
  static SecretKey deserialize(BytesView b);

  /// Key identity: material, algorithm and padding.
  friend bool operator==(const SecretKey& a, const SecretKey& b) {
    return a.material_ == b.material_ && a.alg_ == b.alg_ &&
           a.padding_ == b.padding_;
  }

 private:
  Bytes material_;
  SymmetricAlg alg_ = SymmetricAlg::kAes192Cbc;
  PaddingScheme padding_ = PaddingScheme::kPkcs7;
  std::shared_ptr<const Aes> cipher_;  // null only for an empty key
};

}  // namespace et::crypto
