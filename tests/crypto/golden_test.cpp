// Golden outputs: RSA signatures and AES-CBC ciphertexts pinned bit for
// bit. Keys, IVs and messages all come from seeded Rngs, so any change to
// key generation (prime search, Miller-Rabin), the modular-exponentiation
// kernel or the block cipher that alters a single output bit fails here.
// Each pinned value is a SHA-256 over a whole family of outputs.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/crypto/aes.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"

namespace et::crypto {
namespace {

struct RsaGolden {
  std::size_t bits;
  std::uint64_t seed;
  const char* modulus_sha256;      // SHA-256 of n's big-endian octets
  const char* sha1_sigs_sha256;    // SHA-256 over all SHA-1 signatures
  const char* sha256_sigs_sha256;  // SHA-256 over all SHA-256 signatures
};

// Names the parameter in test listings; gtest would print its bytes,
// pointers included, which differ from run to run.
void PrintTo(const RsaGolden& g, std::ostream* os) { *os << g.bits << "-bit"; }

// Messages: empty, one byte, a short text, then Rng-drawn 20/128/512/1000 B.
std::vector<Bytes> golden_messages(Rng& rng) {
  std::vector<Bytes> out = {Bytes{}, Bytes{0x00}, to_bytes("trace: AVAILABLE")};
  for (const std::size_t len : {20u, 128u, 512u, 1000u}) {
    out.push_back(rng.next_bytes(len));
  }
  return out;
}

class GoldenRsaTest : public ::testing::TestWithParam<RsaGolden> {};

TEST_P(GoldenRsaTest, KeysAndSignaturesMatchPinnedDigests) {
  const RsaGolden& g = GetParam();
  Rng rng(g.seed);
  const RsaKeyPair kp = rsa_generate(rng, g.bits);
  EXPECT_EQ(hex_encode(Sha256::digest(kp.public_key.n().to_bytes())),
            g.modulus_sha256);

  const std::vector<Bytes> messages = golden_messages(rng);
  for (const HashAlg alg : {HashAlg::kSha1, HashAlg::kSha256}) {
    Sha256 h;
    for (const Bytes& m : messages) {
      const Bytes sig = kp.private_key.sign(m, alg);
      ASSERT_EQ(sig.size(), kp.public_key.modulus_len());
      EXPECT_TRUE(kp.public_key.verify(m, sig, alg));
      h.update(sig);
    }
    EXPECT_EQ(hex_encode(h.finalize()), alg == HashAlg::kSha1
                                            ? g.sha1_sigs_sha256
                                            : g.sha256_sigs_sha256)
        << hash_alg_name(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeySizes, GoldenRsaTest,
    ::testing::Values(
        RsaGolden{
            512, 512,
            "2cf9eb6ca5e4c47fe80d10f84bc06564a79c95f8b2e80c6913b936daba4aa65c",
            "bb0746190db6c2d1244dfd63296b0c616065c3cb270514d07ad8e03244ec7425",
            "09e9ea90d37fbec4997a388f5a315e6558dd7ad6822615f25044e70f5ae6df68"},
        RsaGolden{
            768, 768,
            "52ae5735b4f9b1bb758990611e25a51959b7be51c14db49b4bd17a86a40db78a",
            "c271482f2ab92ab6c8cc9fbf8f6c564510193d0fd680420ddd9628491d1c16f0",
            "44e1ea86939836f35f13fce72d12ee376f37a3707675b19c4144b7fe5e848f83"},
        RsaGolden{
            1024, 1024,
            "05cd84536a520a8e544ada33a4c1b53ea897ae8e4f5932825c1cd17d82c2a9db",
            "b551f9cf9ee4d6b1340812a19b617416dcc8771483c87f1b478e532787d36776",
            "3353e99a75d6290134d83c1c7677f47b01e155f04638a34c071999880fc43dd9"},
        RsaGolden{
            2048, 2048,
            "889bfba30cf6f4f3db8571fa041cf5f09948428b5a4e7de81ad316af5e9be3b7",
            "8a5a382c8dcc43dccafd706f442034a35ee212d96bd78163d3bf482cf8d6a299",
            "9ece982ddb547680f77872732aadc00b46f5ef1f75c89958c4887a47bc8a7c7a"}));

struct AesGolden {
  std::size_t key_len;
  const char* ciphertexts_sha256;  // over lengths 0..1000, in order
};

void PrintTo(const AesGolden& g, std::ostream* os) {
  *os << g.key_len * 8 << "-bit";
}

class GoldenAesCbcTest : public ::testing::TestWithParam<AesGolden> {};

TEST_P(GoldenAesCbcTest, CiphertextsMatchPinnedDigest) {
  const AesGolden& g = GetParam();
  Rng rng(g.key_len);
  const Aes cipher(rng.next_bytes(g.key_len));
  Sha256 h;
  for (std::size_t len = 0; len <= 1000; ++len) {
    const Bytes pt = rng.next_bytes(len);
    const Bytes ct = aes_cbc_encrypt(cipher, pt, rng);
    ASSERT_EQ(aes_cbc_decrypt(cipher, ct), pt) << "len=" << len;
    h.update(ct);
  }
  EXPECT_EQ(hex_encode(h.finalize()), g.ciphertexts_sha256);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, GoldenAesCbcTest,
                         ::testing::Values(
                             AesGolden{16,
                                       "55e65ff7fecb2d32a2267b78b259d9c1"
                                       "d9d49751e94d49dd9308df2c695ebeef"},
                             AesGolden{24,
                                       "1c1add1fbc8a70a8d1d27cf18ef14a0d"
                                       "1e2d4d265689e4b4e783861c3027ecd3"},
                             AesGolden{32,
                                       "fb185f6a2afa802d1f30aa7775c3ec6b"
                                       "d5b1a61d0638a42e2d5ad525a6e75713"}));

}  // namespace
}  // namespace et::crypto
