#include "src/crypto/secret_key.h"

#include <stdexcept>

#include "src/common/serialize.h"
#include "src/crypto/aes.h"

namespace et::crypto {

std::string symmetric_alg_name(SymmetricAlg alg) {
  switch (alg) {
    case SymmetricAlg::kAes128Cbc: return "AES-128/CBC";
    case SymmetricAlg::kAes192Cbc: return "AES-192/CBC";
    case SymmetricAlg::kAes256Cbc: return "AES-256/CBC";
  }
  return "unknown";
}

std::size_t symmetric_key_len(SymmetricAlg alg) {
  switch (alg) {
    case SymmetricAlg::kAes128Cbc: return 16;
    case SymmetricAlg::kAes192Cbc: return 24;
    case SymmetricAlg::kAes256Cbc: return 32;
  }
  throw std::invalid_argument("symmetric_key_len: unknown algorithm");
}

SecretKey SecretKey::generate(Rng& rng, SymmetricAlg alg) {
  return from_material(rng.next_bytes(symmetric_key_len(alg)), alg);
}

SecretKey SecretKey::from_material(Bytes material, SymmetricAlg alg,
                                   PaddingScheme padding) {
  if (material.size() != symmetric_key_len(alg)) {
    throw std::invalid_argument("SecretKey: material length mismatch");
  }
  SecretKey k;
  k.cipher_ = std::make_shared<const Aes>(material);
  k.material_ = std::move(material);
  k.alg_ = alg;
  k.padding_ = padding;
  return k;
}

Bytes SecretKey::encrypt(BytesView plaintext, Rng& rng) const {
  if (empty()) throw std::logic_error("SecretKey::encrypt: empty key");
  return aes_cbc_encrypt(*cipher_, plaintext, rng);
}

Bytes SecretKey::decrypt(BytesView ciphertext) const {
  if (empty()) throw std::logic_error("SecretKey::decrypt: empty key");
  return aes_cbc_decrypt(*cipher_, ciphertext);
}

Bytes SecretKey::serialize() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(alg_));
  w.u8(static_cast<std::uint8_t>(padding_));
  w.bytes(material_);
  return std::move(w).take();
}

SecretKey SecretKey::deserialize(BytesView b) {
  Reader r(b);
  const auto alg = static_cast<SymmetricAlg>(r.u8());
  const auto padding = static_cast<PaddingScheme>(r.u8());
  Bytes material = r.bytes();
  r.expect_done();
  if (padding != PaddingScheme::kPkcs7) {
    throw std::invalid_argument("SecretKey: unsupported padding scheme");
  }
  return from_material(std::move(material), alg, padding);
}

}  // namespace et::crypto
