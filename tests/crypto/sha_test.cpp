#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace et::crypto {
namespace {

// FIPS 180 / NIST CAVS known-answer vectors.

TEST(Sha1Test, EmptyInput) {
  EXPECT_EQ(hex_encode(Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(hex_encode(Sha1::digest(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(Sha1::digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  Sha1 h;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    h.update(BytesView(msg.data() + i, 1));
  }
  EXPECT_EQ(h.finalize(), Sha1::digest(msg));
}

TEST(Sha1Test, ResetRestoresInitialState) {
  Sha1 h;
  h.update(to_bytes("junk"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(hex_encode(h.finalize()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, BoundarySizes) {
  // Exercise the padding edge at 55/56/64 bytes.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const Bytes m(n, 0x41);
    Sha1 a;
    a.update(m);
    EXPECT_EQ(a.finalize(), Sha1::digest(m)) << "n=" << n;
  }
}

/// Deterministic test bytes (splitmix64 stream, top byte per step).
Bytes seeded_bytes(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  for (auto& b : out) {
    seed += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    b = static_cast<std::uint8_t>((z ^ (z >> 31)) >> 56);
  }
  return out;
}

TEST(Sha1Test, EveryPrefixOfASeededStreamIsPinned) {
  // The SHA-1 of every prefix of length 0..1024, folded into one SHA-256:
  // each padding position, block boundary and length encoding is covered.
  const Bytes stream = seeded_bytes(1024, 15);
  Sha256 all;
  for (std::size_t n = 0; n <= stream.size(); ++n) {
    all.update(Sha1::digest(BytesView(stream.data(), n)));
  }
  EXPECT_EQ(hex_encode(all.finalize()),
            "c13543f15dc9d95eda53e1e5b5f6de3947a0d5a0b94f707dfee253a4077957cf");
}

TEST(Sha1Test, ChunkedUpdateAtEverySplitOfThreeBlocks) {
  const Bytes msg = seeded_bytes(3 * Sha1::kBlockSize, 3);
  const Bytes want = Sha1::digest(msg);
  EXPECT_EQ(hex_encode(want), "f35b933d976a4c72616c7e89ff2aa3967afcc840");
  for (std::size_t i = 0; i <= msg.size(); ++i) {
    for (std::size_t j = i; j <= msg.size(); ++j) {
      Sha1 h;
      h.update(BytesView(msg.data(), i));
      h.update(BytesView(msg.data() + i, j - i));
      h.update(BytesView(msg.data() + j, msg.size() - j));
      ASSERT_EQ(h.finalize(), want) << "split at " << i << ", " << j;
    }
  }
}

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(
      hex_encode(Sha256::digest({})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      hex_encode(Sha256::digest(to_bytes("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      hex_encode(Sha256::digest(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) h.update(chunk);
  EXPECT_EQ(
      hex_encode(h.finalize()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg;
  for (int i = 0; i < 300; ++i) msg.push_back(static_cast<std::uint8_t>(i));
  Sha256 h;
  h.update(BytesView(msg.data(), 100));
  h.update(BytesView(msg.data() + 100, 200));
  EXPECT_EQ(h.finalize(), Sha256::digest(msg));
}

TEST(Sha256Test, DigestSizes) {
  EXPECT_EQ(Sha1::digest(to_bytes("x")).size(), Sha1::kDigestSize);
  EXPECT_EQ(Sha256::digest(to_bytes("x")).size(), Sha256::kDigestSize);
}

}  // namespace
}  // namespace et::crypto
