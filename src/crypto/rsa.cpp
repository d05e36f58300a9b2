#include "src/crypto/rsa.h"

#include <stdexcept>

#include "src/common/serialize.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace et::crypto {

namespace {

// DER-encoded DigestInfo prefixes from RFC 8017 §9.2.
constexpr std::uint8_t kSha1Prefix[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                        0x05, 0x2b, 0x0e, 0x03, 0x02,
                                        0x1a, 0x05, 0x00, 0x04, 0x14};
constexpr std::uint8_t kSha256Prefix[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

Bytes digest_info(BytesView message, HashAlg alg) {
  Bytes out;
  if (alg == HashAlg::kSha1) {
    out.assign(std::begin(kSha1Prefix), std::end(kSha1Prefix));
    append(out, Sha1::digest(message));
  } else {
    out.assign(std::begin(kSha256Prefix), std::end(kSha256Prefix));
    append(out, Sha256::digest(message));
  }
  return out;
}

// EMSA-PKCS1-v1_5: 0x00 0x01 FF..FF 0x00 DigestInfo
Bytes emsa_encode(BytesView message, HashAlg alg, std::size_t em_len) {
  const Bytes t = digest_info(message, alg);
  if (em_len < t.size() + 11) {
    throw std::invalid_argument("RSA modulus too small for digest");
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t.size() - 3, 0xFF);
  em.push_back(0x00);
  append(em, t);
  return em;
}

}  // namespace

std::string hash_alg_name(HashAlg alg) {
  return alg == HashAlg::kSha1 ? "SHA-1" : "SHA-256";
}

RsaPublicKey::RsaPublicKey(BigInt n, BigInt e)
    : n_(std::move(n)), e_(std::move(e)) {}

std::size_t RsaPublicKey::modulus_len() const {
  return (n_.bit_length() + 7) / 8;
}

bool RsaPublicKey::verify(BytesView message, BytesView signature,
                          HashAlg alg) const {
  if (empty() || n_.bit_length() > Montgomery64::kMaxBits) return false;
  const std::size_t k = modulus_len();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s >= n_) return false;
  const BigInt m = s.mod_exp(e_, n_);
  const Bytes em = m.to_bytes(k);
  Bytes expected;
  try {
    expected = emsa_encode(message, alg, k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return constant_time_equal(em, expected);
}

Bytes RsaPublicKey::encrypt(BytesView plaintext, Rng& rng) const {
  const std::size_t k = modulus_len();
  if (plaintext.size() + 11 > k) {
    throw std::invalid_argument("RSAES-PKCS1: message too long");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero random) 0x00 M
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t ps_len = k - plaintext.size() - 3;
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64());
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  append(em, plaintext);

  const BigInt m = BigInt::from_bytes(em);
  return m.mod_exp(e_, n_).to_bytes(k);
}

Bytes RsaPublicKey::serialize() const {
  Writer w;
  w.bytes(n_.to_bytes());
  w.bytes(e_.to_bytes());
  return std::move(w).take();
}

RsaPublicKey RsaPublicKey::deserialize(BytesView b) {
  Reader r(b);
  BigInt n = BigInt::from_bytes(r.bytes());
  BigInt e = BigInt::from_bytes(r.bytes());
  r.expect_done();
  return {std::move(n), std::move(e)};
}

Bytes RsaPublicKey::fingerprint() const { return Sha1::digest(serialize()); }

struct RsaPrivateKey::CrtKernels {
  Montgomery64 p;
  Montgomery64 q;
};

void RsaPrivateKey::precompute_crt() {
  crt_.reset();
  if (Montgomery64::supports(p_) && Montgomery64::supports(q_)) {
    crt_ = std::make_shared<const CrtKernels>(
        CrtKernels{Montgomery64(p_), Montgomery64(q_)});
  }
}

BigInt RsaPrivateKey::private_op(const BigInt& c) const {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv*(m1-m2) mod p,
  // m = m2 + h*q.
  const BigInt m1 = crt_ ? crt_->p.pow(c, dp_) : c.mod_exp(dp_, p_);
  const BigInt m2 = crt_ ? crt_->q.pow(c, dq_) : c.mod_exp(dq_, q_);
  BigInt diff;
  if (m1 >= m2 % p_) {
    diff = m1 - (m2 % p_);
  } else {
    diff = (m1 + p_) - (m2 % p_);
  }
  const BigInt h = (qinv_ * diff) % p_;
  return m2 + h * q_;
}

Bytes RsaPrivateKey::sign(BytesView message, HashAlg alg) const {
  if (empty()) throw std::logic_error("RsaPrivateKey::sign: empty key");
  const std::size_t k = pub_.modulus_len();
  const Bytes em = emsa_encode(message, alg, k);
  const BigInt m = BigInt::from_bytes(em);
  return private_op(m).to_bytes(k);
}

Bytes RsaPrivateKey::decrypt(BytesView ciphertext) const {
  if (empty()) throw std::logic_error("RsaPrivateKey::decrypt: empty key");
  const std::size_t k = pub_.modulus_len();
  if (ciphertext.size() != k) {
    throw std::invalid_argument("RSAES-PKCS1: bad ciphertext length");
  }
  const BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= pub_.n()) {
    throw std::invalid_argument("RSAES-PKCS1: ciphertext out of range");
  }
  const Bytes em = private_op(c).to_bytes(k);
  // Parse 0x00 0x02 PS 0x00 M.
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    throw std::invalid_argument("RSAES-PKCS1: bad padding");
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) {
    throw std::invalid_argument("RSAES-PKCS1: bad padding");
  }
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

Bytes RsaPrivateKey::serialize() const {
  Writer w;
  w.bytes(pub_.serialize());
  w.bytes(d_.to_bytes());
  w.bytes(p_.to_bytes());
  w.bytes(q_.to_bytes());
  w.bytes(dp_.to_bytes());
  w.bytes(dq_.to_bytes());
  w.bytes(qinv_.to_bytes());
  return std::move(w).take();
}

RsaPrivateKey RsaPrivateKey::deserialize(BytesView b) {
  Reader r(b);
  RsaPrivateKey key;
  key.pub_ = RsaPublicKey::deserialize(r.bytes());
  key.d_ = BigInt::from_bytes(r.bytes());
  key.p_ = BigInt::from_bytes(r.bytes());
  key.q_ = BigInt::from_bytes(r.bytes());
  key.dp_ = BigInt::from_bytes(r.bytes());
  key.dq_ = BigInt::from_bytes(r.bytes());
  key.qinv_ = BigInt::from_bytes(r.bytes());
  r.expect_done();
  key.precompute_crt();
  return key;
}

struct RsaKeyPairFactory {
  static RsaKeyPair make(Rng& rng, std::size_t bits) {
    if (bits < 128 || bits % 2 != 0 || bits > Montgomery64::kMaxBits) {
      throw std::invalid_argument(
          "rsa_generate: bits must be even and in [128, 2048]");
    }
    const BigInt e(65537);
    for (;;) {
      const BigInt p = BigInt::generate_prime(rng, bits / 2);
      BigInt q = BigInt::generate_prime(rng, bits / 2);
      if (p == q) continue;
      const BigInt n = p * q;
      if (n.bit_length() != bits) continue;  // want an exact-length modulus
      const BigInt p1 = p - BigInt(1);
      const BigInt q1 = q - BigInt(1);
      const BigInt phi = p1 * q1;
      if (!(BigInt::gcd(e, phi) == BigInt(1))) continue;
      const BigInt d = e.mod_inverse(phi);

      RsaPrivateKey priv;
      priv.pub_ = RsaPublicKey(n, e);
      priv.d_ = d;
      // Keep p > q so CRT recombination stays in range.
      if (p >= q) {
        priv.p_ = p;
        priv.q_ = q;
      } else {
        priv.p_ = q;
        priv.q_ = p;
      }
      priv.dp_ = d % (priv.p_ - BigInt(1));
      priv.dq_ = d % (priv.q_ - BigInt(1));
      priv.qinv_ = priv.q_.mod_inverse(priv.p_);
      priv.precompute_crt();

      RsaKeyPair pair;
      pair.public_key = priv.pub_;
      pair.private_key = std::move(priv);
      return pair;
    }
  }
};

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
  return RsaKeyPairFactory::make(rng, bits);
}

}  // namespace et::crypto
