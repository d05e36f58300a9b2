#include "src/crypto/bigint.h"

#include <gtest/gtest.h>

#include <vector>

namespace et::crypto {
namespace {

// Classical reference: square-and-multiply, reducing with % after every
// step.
BigInt classical_pow(const BigInt& base, const BigInt& exponent,
                     const BigInt& n) {
  BigInt acc = BigInt(1) % n;
  const BigInt b = base % n;
  for (std::size_t bit = exponent.bit_length(); bit-- > 0;) {
    acc = (acc * acc) % n;
    if (exponent.bit(bit)) acc = (acc * b) % n;
  }
  return acc;
}

// A random odd modulus of exactly `bits` bits (bits >= 2).
BigInt odd_modulus(Rng& rng, std::size_t bits) {
  BigInt n = BigInt::random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
  return n.is_odd() ? n : n + BigInt(1);
}

// Operands that stress the kernel's edges: 0, 1, n-1, random values below
// n, and values at or above n (which it must reduce first), up to R and
// beyond.
std::vector<BigInt> edge_operands(Rng& rng, const BigInt& n) {
  const BigInt r = BigInt(1) << (64 * ((n.bit_length() + 63) / 64));
  return {BigInt(),
          BigInt(1),
          n - BigInt(1),
          BigInt::random_below(rng, n),
          BigInt::random_below(rng, n),
          n,
          n + BigInt(1),
          r - BigInt(1),
          r,
          n * n + BigInt::random_below(rng, n)};
}

TEST(BigIntTest, ZeroBasics) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(BigIntTest, SmallValues) {
  EXPECT_EQ(BigInt(1).to_string(), "1");
  EXPECT_EQ(BigInt(0xFFFFFFFFull).bit_length(), 32u);
  EXPECT_EQ(BigInt(0x100000000ull).bit_length(), 33u);
  EXPECT_EQ(BigInt(12345678901234567ull).to_string(), "12345678901234567");
}

TEST(BigIntTest, ParseDecimalAndHex) {
  EXPECT_EQ(BigInt::parse("12345678901234567890123456789").to_string(),
            "12345678901234567890123456789");
  EXPECT_EQ(BigInt::parse("0xff").to_u64(), 255u);
  EXPECT_EQ(BigInt::parse("0xDEADBEEFCAFE").to_hex(), "deadbeefcafe");
  EXPECT_THROW(BigInt::parse(""), std::invalid_argument);
  EXPECT_THROW(BigInt::parse("12a"), std::invalid_argument);
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const BigInt v = BigInt::random_bits(rng, 1 + rng.next_below(512));
    EXPECT_EQ(BigInt::from_bytes(v.to_bytes()), v);
  }
}

TEST(BigIntTest, FromBytesIgnoresLeadingZeros) {
  const Bytes with_zeros{0x00, 0x00, 0x01, 0x02};
  const Bytes minimal{0x01, 0x02};
  EXPECT_EQ(BigInt::from_bytes(with_zeros), BigInt::from_bytes(minimal));
}

TEST(BigIntTest, ToBytesPadsToMinLen) {
  const Bytes b = BigInt(0x0102).to_bytes(4);
  EXPECT_EQ(b, (Bytes{0x00, 0x00, 0x01, 0x02}));
}

TEST(BigIntTest, AdditionWithCarryChain) {
  const BigInt a = BigInt::parse("0xffffffffffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "1000000000000000000000000");
}

TEST(BigIntTest, SubtractionWithBorrow) {
  const BigInt a = BigInt::parse("0x10000000000000000");
  EXPECT_EQ((a - BigInt(1)).to_hex(), "ffffffffffffffff");
  EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
}

TEST(BigIntTest, MultiplicationKnownProduct) {
  const BigInt a = BigInt::parse("123456789012345678901234567890");
  const BigInt b = BigInt::parse("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, MultiplyByZeroAndOne) {
  const BigInt a = BigInt::parse("0xabcdef0123456789");
  EXPECT_TRUE((a * BigInt()).is_zero());
  EXPECT_EQ(a * BigInt(1), a);
}

TEST(BigIntTest, ShiftRoundTrip) {
  Rng rng(2);
  for (std::size_t shift : {1u, 31u, 32u, 33u, 100u}) {
    const BigInt v = BigInt::random_bits(rng, 200) + BigInt(1);
    EXPECT_EQ((v << shift) >> shift, v) << "shift=" << shift;
  }
}

TEST(BigIntTest, DivModIdentity) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_bits(rng, 256);
    const BigInt b = BigInt::random_bits(rng, 1 + rng.next_below(200)) +
                     BigInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigIntTest, DivModSmallerDividend) {
  const BigInt a(5), b(7);
  const auto [q, r] = a.divmod(b);
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, a);
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5) / BigInt(), std::domain_error);
  EXPECT_THROW(BigInt(5) % BigInt(), std::domain_error);
}

TEST(BigIntTest, KnuthDCornerCase) {
  // Exercises the "add back" branch probabilistically: many divisions with
  // divisors having a high top limb.
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const BigInt b = (BigInt(1) << 95) + BigInt::random_bits(rng, 64);
    const BigInt a = BigInt::random_bits(rng, 192);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigIntTest, Comparison) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::parse("0x100000000"), BigInt(0xFFFFFFFFull));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigIntTest, ModExpSmallKnown) {
  // 4^13 mod 497 = 445 (classic example).
  EXPECT_EQ(BigInt(4).mod_exp(BigInt(13), BigInt(497)).to_u64(), 445u);
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(BigInt(2).mod_exp(BigInt(1000002), BigInt(1000003)).to_u64(), 1u);
}

TEST(BigIntTest, ModExpEvenModulus) {
  // 3^5 mod 100 = 43 (non-Montgomery path).
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(5), BigInt(100)).to_u64(), 43u);
}

TEST(BigIntTest, ModExpZeroExponent) {
  EXPECT_EQ(BigInt(12345).mod_exp(BigInt(), BigInt(97)).to_u64(), 1u);
}

TEST(BigIntTest, MontgomeryMatchesClassical) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    BigInt n = BigInt::random_bits(rng, 128);
    if (!n.is_odd()) n = n + BigInt(1);
    if (n.bit_length() < 2) continue;
    const BigInt base = BigInt::random_bits(rng, 128);
    const BigInt exp = BigInt::random_bits(rng, 40);
    // Classical reference via repeated reduction.
    BigInt acc(1);
    BigInt b = base % n;
    for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
      acc = (acc * acc) % n;
      if (exp.bit(bit)) acc = (acc * b) % n;
    }
    EXPECT_EQ(base.mod_exp(exp, n), acc);
  }
}

TEST(BigIntTest, GcdKnown) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(18)).to_u64(), 6u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).to_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_u64(), 5u);
}

TEST(BigIntTest, ModInverse) {
  // 3 * 7 = 21 = 1 mod 10.
  EXPECT_EQ(BigInt(3).mod_inverse(BigInt(10)).to_u64(), 7u);
  Rng rng(6);
  const BigInt m = BigInt::generate_prime(rng, 64, 16);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_below(rng, m - BigInt(1)) + BigInt(1);
    const BigInt inv = a.mod_inverse(m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(BigIntTest, ModInverseNonCoprimeThrows) {
  EXPECT_THROW(BigInt(4).mod_inverse(BigInt(8)), std::domain_error);
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(7);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 97ull, 65537ull, 4294967291ull}) {
    EXPECT_TRUE(BigInt(p).is_probable_prime(rng)) << p;
  }
}

TEST(BigIntTest, PrimalityKnownComposites) {
  Rng rng(8);
  // Includes Carmichael numbers 561 and 41041.
  for (std::uint64_t c : {1ull, 4ull, 100ull, 561ull, 41041ull,
                          4294967295ull}) {
    EXPECT_FALSE(BigInt(c).is_probable_prime(rng)) << c;
  }
}

TEST(BigIntTest, GeneratePrimeHasExactBitLength) {
  Rng rng(9);
  const BigInt p = BigInt::generate_prime(rng, 96, 16);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.is_probable_prime(rng, 16));
}

// generate_prime gives up after 64 * bits candidates; a correct kernel
// never gets near that, at any size the library generates.
TEST(BigIntTest, GeneratePrimeSucceedsAcrossSeedsAndSizes) {
  for (const std::size_t bits : {8u, 9u, 16u, 33u, 64u, 127u, 256u, 449u,
                                 512u, 1024u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(1000 * seed + bits);
      const BigInt p = BigInt::generate_prime(rng, bits, 8);
      EXPECT_EQ(p.bit_length(), bits) << bits;
      EXPECT_TRUE(p.bit(bits - 2)) << bits;  // top two bits set
      EXPECT_TRUE(p.is_probable_prime(rng, 8)) << bits;
    }
  }
}

TEST(BigIntTest, RandomBelowIsBelow) {
  Rng rng(10);
  const BigInt bound = BigInt::parse("1000000007");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(rng, bound), bound);
  }
}

TEST(BigIntTest, DecimalStringLarge) {
  const BigInt v = BigInt::parse("340282366920938463463374607431768211456");
  EXPECT_EQ(v, BigInt(1) << 128);
  EXPECT_EQ(v.to_string(), "340282366920938463463374607431768211456");
}

// --- Montgomery64 kernel against the classical reference --------------------

TEST(BigIntMontgomeryTest, SupportsOnlyOddModuliWithinCapacity) {
  Rng rng(11);
  EXPECT_FALSE(Montgomery64::supports(BigInt()));
  EXPECT_FALSE(Montgomery64::supports(BigInt(1)));
  EXPECT_FALSE(Montgomery64::supports(BigInt(100)));
  EXPECT_TRUE(Montgomery64::supports(BigInt(3)));
  EXPECT_TRUE(Montgomery64::supports(odd_modulus(rng, Montgomery64::kMaxBits)));
  const BigInt wide = odd_modulus(rng, Montgomery64::kMaxBits + 1);
  EXPECT_FALSE(Montgomery64::supports(wide));
  EXPECT_THROW(Montgomery64{wide}, std::domain_error);
  EXPECT_THROW(Montgomery64{BigInt(100)}, std::domain_error);
  EXPECT_THROW(Montgomery64{BigInt(1)}, std::domain_error);
}

TEST(BigIntMontgomeryTest, MulMatchesClassicalAcrossLimbCounts) {
  Rng rng(12);
  std::vector<std::size_t> sizes = {2, 63, 64, 65, 127, 128, 1023, 1024, 2047};
  for (std::size_t limbs = 1; limbs <= Montgomery64::kMaxLimbs; ++limbs) {
    sizes.push_back(64 * (limbs - 1) + 2);  // narrowest at this limb count
    sizes.push_back(64 * limbs);            // widest
  }
  for (const std::size_t bits : sizes) {
    const BigInt n = odd_modulus(rng, bits);
    const Montgomery64 mont(n);
    const std::vector<BigInt> ops = edge_operands(rng, n);
    for (const BigInt& a : ops) {
      for (const BigInt& b : ops) {
        ASSERT_EQ(mont.mul(a, b), (a * b) % n)
            << "bits=" << bits << " a=" << a.to_hex() << " b=" << b.to_hex();
      }
    }
  }
}

TEST(BigIntMontgomeryTest, PowMatchesClassicalAcrossLimbCountsAndWindows) {
  Rng rng(13);
  for (std::size_t limbs = 1; limbs <= Montgomery64::kMaxLimbs; ++limbs) {
    const std::size_t bits = limbs == 1 ? 61 : 64 * limbs - limbs;
    const BigInt n = odd_modulus(rng, bits);
    const Montgomery64 mont(n);
    // Exponent lengths cover every window width: 1-bit (<= 32 bits),
    // 3-bit (<= 128), 4-bit (<= 512) and 5-bit beyond.
    std::vector<BigInt> exponents = {
        BigInt(),     BigInt(1),
        BigInt(2),    BigInt(3),
        BigInt(65537), BigInt::random_bits(rng, 100),
        BigInt::random_bits(rng, 140)};
    if (limbs <= 8) {  // keeps the reference's cost down
      exponents.push_back(BigInt::random_bits(rng, 600));
    }
    for (const BigInt& base : edge_operands(rng, n)) {
      for (const BigInt& e : exponents) {
        ASSERT_EQ(mont.pow(base, e), classical_pow(base, e, n))
            << "bits=" << bits << " base=" << base.to_hex()
            << " e=" << e.to_hex();
      }
    }
  }
}

TEST(BigIntMontgomeryTest, ModExpAtTheCapacityEdges) {
  Rng rng(14);
  for (const std::size_t bits : {65u, 127u, 128u, 1023u, 1024u, 2047u,
                                 2048u, 2049u}) {
    const BigInt n = odd_modulus(rng, bits);
    const BigInt base = BigInt::random_bits(rng, bits + 40);  // >= n
    const BigInt e = BigInt::random_bits(rng, 70);
    EXPECT_EQ(base.mod_exp(e, n), classical_pow(base, e, n)) << bits;
    // Even moduli take the classical path.
    EXPECT_EQ(base.mod_exp(e, n + BigInt(1)),
              classical_pow(base, e, n + BigInt(1)))
        << bits;
  }
}

TEST(BigIntMontgomeryTest, FullLengthExponentAt2048Bits) {
  Rng rng(15);
  const BigInt n = odd_modulus(rng, 2048);
  const BigInt base = BigInt::random_below(rng, n);
  const BigInt e = BigInt::random_bits(rng, 2048);
  EXPECT_EQ(Montgomery64(n).pow(base, e), classical_pow(base, e, n));
}

}  // namespace
}  // namespace et::crypto
