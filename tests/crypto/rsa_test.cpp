#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/sha1.h"

namespace et::crypto {
namespace {

// Key generation is the slow part; share one pair across the suite.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    pair_ = new RsaKeyPair(rsa_generate(rng, 1024));
    small_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete small_;
    pair_ = nullptr;
    small_ = nullptr;
  }
  static RsaKeyPair* pair_;
  static RsaKeyPair* small_;
};

RsaKeyPair* RsaTest::pair_ = nullptr;
RsaKeyPair* RsaTest::small_ = nullptr;

TEST_F(RsaTest, ModulusHasRequestedLength) {
  EXPECT_EQ(pair_->public_key.n().bit_length(), 1024u);
  EXPECT_EQ(pair_->public_key.modulus_len(), 128u);
  EXPECT_EQ(small_->public_key.n().bit_length(), 512u);
}

TEST_F(RsaTest, SignVerifySha1) {
  const Bytes msg = to_bytes("trace registration message");
  const Bytes sig = pair_->private_key.sign(msg, HashAlg::kSha1);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(pair_->public_key.verify(msg, sig, HashAlg::kSha1));
}

TEST_F(RsaTest, SignVerifySha256) {
  const Bytes msg = to_bytes("trace registration message");
  const Bytes sig = pair_->private_key.sign(msg, HashAlg::kSha256);
  EXPECT_TRUE(pair_->public_key.verify(msg, sig, HashAlg::kSha256));
  // Digest mismatch must fail.
  EXPECT_FALSE(pair_->public_key.verify(msg, sig, HashAlg::kSha1));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const Bytes sig = pair_->private_key.sign(to_bytes("original"));
  EXPECT_FALSE(pair_->public_key.verify(to_bytes("forged"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = pair_->private_key.sign(msg);
  sig[40] ^= 0x01;
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  const Bytes msg = to_bytes("message");
  const Bytes sig = pair_->private_key.sign(msg);
  EXPECT_FALSE(small_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = pair_->private_key.sign(msg);
  sig.pop_back();
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsSignatureNotBelowModulus) {
  const Bytes msg = to_bytes("message");
  const BigInt& n = pair_->public_key.n();
  const std::size_t k = pair_->public_key.modulus_len();
  EXPECT_FALSE(pair_->public_key.verify(msg, n.to_bytes(k)));
  EXPECT_FALSE(pair_->public_key.verify(msg, (n + BigInt(1)).to_bytes(k)));
  EXPECT_FALSE(pair_->public_key.verify(msg, Bytes(k, 0xFF)));
}

TEST_F(RsaTest, VerifyRejectsZeroPaddedOrEmptySignature) {
  const Bytes msg = to_bytes("message");
  const Bytes sig = pair_->private_key.sign(msg);
  Bytes padded = {0x00};
  padded.insert(padded.end(), sig.begin(), sig.end());  // same value
  EXPECT_FALSE(pair_->public_key.verify(msg, padded));
  EXPECT_FALSE(pair_->public_key.verify(msg, Bytes{}));
  EXPECT_TRUE(pair_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsEverySingleBitFlip) {
  const Bytes msg = to_bytes("every bit of a 1024-bit signature");
  const Bytes sig = pair_->private_key.sign(msg);
  for (std::size_t bit = 0; bit < 8 * sig.size(); ++bit) {
    Bytes bad = sig;
    bad[bit / 8] = static_cast<std::uint8_t>(bad[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_FALSE(pair_->public_key.verify(msg, bad)) << "bit=" << bit;
  }
}

// With e = 1 the encoded message is its own signature, so a key of any
// width can be checked without generating it.
Bytes self_signed_em(BytesView msg, std::size_t k) {
  const Bytes prefix = hex_decode("3021300906052b0e03021a05000414");
  Bytes em = {0x00, 0x01};
  em.insert(em.end(), k - 3 - prefix.size() - 20, 0xFF);
  em.push_back(0x00);
  append(em, prefix);
  append(em, Sha1::digest(msg));
  return em;
}

TEST(RsaCapacityTest, VerifyRefusesKeysWiderThanTheKernel) {
  Rng rng(8);
  const Bytes msg = to_bytes("attacker-supplied key");
  for (const std::size_t bits : {Montgomery64::kMaxBits - 1,
                                 Montgomery64::kMaxBits}) {
    const BigInt n = BigInt::random_bits(rng, bits - 1) +
                     (BigInt(1) << (bits - 1)) + BigInt(1);
    const RsaPublicKey key(n, BigInt(1));
    EXPECT_TRUE(key.verify(msg, self_signed_em(msg, key.modulus_len())))
        << bits;
  }
  for (const std::size_t bits : {Montgomery64::kMaxBits + 1,
                                 Montgomery64::kMaxBits + 1024}) {
    const BigInt n = (BigInt(1) << (bits - 1)) + BigInt(1);
    const RsaPublicKey key(n, BigInt(1));
    EXPECT_FALSE(key.verify(msg, self_signed_em(msg, key.modulus_len())))
        << bits;
  }
}

TEST_F(RsaTest, SignatureIsDeterministic) {
  const Bytes msg = to_bytes("PKCS#1 v1.5 is deterministic");
  EXPECT_EQ(pair_->private_key.sign(msg), pair_->private_key.sign(msg));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  const Bytes pt = to_bytes("secret trace key material 192bit");
  const Bytes ct = pair_->public_key.encrypt(pt, rng);
  EXPECT_EQ(ct.size(), 128u);
  EXPECT_EQ(pair_->private_key.decrypt(ct), pt);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Rng rng(2);
  const Bytes pt = to_bytes("same message");
  EXPECT_NE(pair_->public_key.encrypt(pt, rng),
            pair_->public_key.encrypt(pt, rng));
}

TEST_F(RsaTest, EncryptRejectsOverlongMessage) {
  Rng rng(3);
  EXPECT_THROW(pair_->public_key.encrypt(Bytes(118), rng),
               std::invalid_argument);
  // 117 = 128 - 11 is the PKCS#1 v1.5 limit for a 1024-bit key.
  EXPECT_NO_THROW(pair_->public_key.encrypt(Bytes(117), rng));
}

TEST_F(RsaTest, DecryptRejectsGarbage) {
  EXPECT_THROW(pair_->private_key.decrypt(Bytes(128, 0xAB)),
               std::invalid_argument);
  EXPECT_THROW(pair_->private_key.decrypt(Bytes(64)), std::invalid_argument);
}

TEST_F(RsaTest, DecryptWithWrongKeyFails) {
  Rng rng(4);
  const Bytes ct = small_->public_key.encrypt(to_bytes("hello"), rng);
  EXPECT_THROW((void)pair_->private_key.decrypt(ct), std::invalid_argument);
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  const Bytes wire = pair_->public_key.serialize();
  const RsaPublicKey parsed = RsaPublicKey::deserialize(wire);
  EXPECT_EQ(parsed, pair_->public_key);
  const Bytes msg = to_bytes("serialized key still verifies");
  EXPECT_TRUE(parsed.verify(msg, pair_->private_key.sign(msg)));
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(pair_->public_key.fingerprint(), pair_->public_key.fingerprint());
  EXPECT_NE(pair_->public_key.fingerprint(),
            small_->public_key.fingerprint());
  EXPECT_EQ(pair_->public_key.fingerprint().size(), 20u);
}

TEST_F(RsaTest, EmptyKeyBehaviour) {
  RsaPublicKey empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.verify(to_bytes("m"), Bytes(128)));
  RsaPrivateKey empty_priv;
  EXPECT_THROW((void)empty_priv.sign(to_bytes("m")), std::logic_error);
}

TEST_F(RsaTest, CrtMatchesPlainExponentiation) {
  // private_op via CRT must invert the public operation.
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const Bytes pt = rng.next_bytes(32);
    const Bytes ct = small_->public_key.encrypt(pt, rng);
    EXPECT_EQ(small_->private_key.decrypt(ct), pt);
  }
}

TEST(RsaGenerateTest, RejectsBadSizes) {
  Rng rng(6);
  EXPECT_THROW(rsa_generate(rng, 100), std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 127), std::invalid_argument);
}

TEST(RsaGenerateTest, ThrowsAboveKernelCapacity) {
  Rng rng(9);
  EXPECT_THROW(rsa_generate(rng, Montgomery64::kMaxBits + 2),
               std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 4096), std::invalid_argument);
}

TEST(RsaGenerateTest, DistinctKeysAcrossCalls) {
  Rng rng(7);
  const RsaKeyPair a = rsa_generate(rng, 256);
  const RsaKeyPair b = rsa_generate(rng, 256);
  EXPECT_NE(a.public_key.n(), b.public_key.n());
}

}  // namespace
}  // namespace et::crypto
