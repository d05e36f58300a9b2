// RSA public-key cryptography (PKCS#1 v1.5), matching the paper's
// configuration: "1024-bit RSA with 160-bit SHA-1 and PKCS#1Padding" (§6.1).
//
// Provides:
//  * key generation (two-prime, CRT parameters precomputed), up to
//    Montgomery64::kMaxBits (2048) bits,
//  * RSASSA-PKCS1-v1_5 signatures over SHA-1 or SHA-256,
//  * RSAES-PKCS1-v1_5 encryption (used to wrap symmetric keys),
//  * serialization of public keys for embedding in credentials and tokens.
//
// Every modular exponentiation runs on the 64-bit-limb Montgomery64 kernel
// (bigint.h). Public keys wider than its capacity are refused by verify,
// which caps the CPU an attacker-supplied key can cost per message. A
// public key verified many times (a cached token's delegate key) can keep
// its Montgomery constants with precompute(), which spares every later
// verify the BigInt division that builds R^2 mod n.
//
// NOT constant-time, no blinding — reproduction quality only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/crypto/bigint.h"

namespace et::crypto {

/// Digest algorithm used inside a PKCS#1 v1.5 signature.
enum class HashAlg : std::uint8_t { kSha1 = 1, kSha256 = 2 };

/// Name of a hash algorithm ("SHA-1", "SHA-256").
std::string hash_alg_name(HashAlg alg);

/// RSA public key: modulus n and public exponent e, plus the modulus's
/// Montgomery constants once precompute() has built them.
class RsaPublicKey {
 public:
  RsaPublicKey() = default;
  RsaPublicKey(BigInt n, BigInt e);

  /// Verifies an RSASSA-PKCS1-v1_5 signature over `message`. False for
  /// keys wider than Montgomery64::kMaxBits. Thread-safe; gives the same
  /// answer with and without precomputed constants.
  [[nodiscard]] bool verify(BytesView message, BytesView signature,
                            HashAlg alg = HashAlg::kSha1) const;

  /// Builds the modulus's Montgomery constants once; this key and the
  /// copies made from it afterwards share them. A no-op for a modulus the
  /// kernel does not support (even, or wider than kMaxBits). Not done on
  /// construction: most parsed keys are verified against once, if at all.
  /// Call before the key is shared across threads.
  void precompute();
  [[nodiscard]] bool precomputed() const { return mont_ != nullptr; }

  /// RSAES-PKCS1-v1_5 encryption; plaintext must be <= modulus_len - 11.
  /// Throws std::invalid_argument when too long.
  [[nodiscard]] Bytes encrypt(BytesView plaintext, Rng& rng) const;

  /// Key size in bytes (modulus length).
  [[nodiscard]] std::size_t modulus_len() const;
  [[nodiscard]] const BigInt& n() const { return n_; }
  [[nodiscard]] const BigInt& e() const { return e_; }
  [[nodiscard]] bool empty() const { return n_.is_zero(); }

  /// Wire encoding / decoding.
  [[nodiscard]] Bytes serialize() const;
  static RsaPublicKey deserialize(BytesView b);

  /// SHA-1 fingerprint of the serialized key (key identity).
  [[nodiscard]] Bytes fingerprint() const;

  /// Key identity: n and e. The precomputed constants are ignored.
  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n_ == b.n_ && a.e_ == b.e_;
  }

 private:
  /// x^e mod n, on the precomputed kernel when there is one.
  [[nodiscard]] BigInt public_op(const BigInt& x) const;

  BigInt n_;
  BigInt e_;
  std::shared_ptr<const Montgomery64> mont_;  // null until precompute()
};

/// RSA private key with CRT acceleration. The Montgomery constants of p
/// and q are computed once, when the key is generated or deserialized, and
/// shared by its copies. The two CRT exponentiations of a 1024-bit key run
/// as one lockstep pass where the CPU allows (MontgomeryPair).
class RsaPrivateKey {
 public:
  RsaPrivateKey() = default;

  /// Signs `message` with RSASSA-PKCS1-v1_5.
  [[nodiscard]] Bytes sign(BytesView message,
                           HashAlg alg = HashAlg::kSha1) const;

  /// RSAES-PKCS1-v1_5 decryption. Throws std::invalid_argument when the
  /// padding is malformed (treat as tamper evidence).
  [[nodiscard]] Bytes decrypt(BytesView ciphertext) const;

  [[nodiscard]] const RsaPublicKey& public_key() const { return pub_; }
  [[nodiscard]] bool empty() const { return pub_.empty(); }

  /// Wire encoding of the full private key (used when a traced entity
  /// delegates a freshly generated signing key to its hosting broker —
  /// always over an encrypted session channel).
  [[nodiscard]] Bytes serialize() const;
  static RsaPrivateKey deserialize(BytesView b);

 private:
  friend struct RsaKeyPairFactory;
  RsaPublicKey pub_;
  BigInt d_;          // private exponent
  BigInt p_, q_;      // prime factors
  BigInt dp_, dq_;    // d mod (p-1), d mod (q-1)
  BigInt qinv_;       // q^{-1} mod p
  // Montgomery kernels for p and q; null when a factor is one Montgomery64
  // does not support, which leaves private_op on BigInt::mod_exp.
  std::shared_ptr<const MontgomeryPair> crt_;

  /// Builds crt_ from p_ and q_.
  void precompute_crt();

  /// CRT modular exponentiation m = c^d mod n.
  [[nodiscard]] BigInt private_op(const BigInt& c) const;
};

/// A generated key pair.
struct RsaKeyPair {
  RsaPrivateKey private_key;
  RsaPublicKey public_key;
};

/// Generates an RSA key pair with an exactly `bits`-bit modulus
/// (default 1024 as in the paper) and e = 65537. Throws
/// std::invalid_argument unless bits is even and in [128, 2048].
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits = 1024);

}  // namespace et::crypto
