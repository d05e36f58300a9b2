// The 8-limb MULX/ADX Montgomery kernel against the portable kernel and a
// BigInt reference, a * b * R^-1 mod n, on the same inputs; and which
// moduli Montgomery64 hands to it.
#include "src/crypto/montgomery_kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/crypto/bigint.h"

namespace et::crypto {
namespace {

using Limbs8 = std::array<std::uint64_t, 8>;

Limbs8 to_limbs(const BigInt& x) {  // x < 2^512
  const Bytes be = x.to_bytes(64);
  Limbs8 out{};
  for (std::size_t i = 0; i < 64; ++i) {
    out[i / 8] |= static_cast<std::uint64_t>(be[63 - i]) << (8 * (i % 8));
  }
  return out;
}

BigInt from_limbs(const Limbs8& x) {
  Bytes be(64);
  for (std::size_t i = 0; i < 64; ++i) {
    be[63 - i] = static_cast<std::uint8_t>(x[i / 8] >> (8 * (i % 8)));
  }
  return BigInt::from_bytes(be);
}

// What the selection should be, asked of the CPU independently of the
// library.
bool cpu_has_bmi2_and_adx() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
#else
  return false;
#endif
}

// An odd 8-limb modulus with its constants, each derived through BigInt
// rather than by the library's own Newton iteration.
struct Modulus {
  explicit Modulus(const BigInt& value)
      : n(value),
        limbs(to_limbs(value)),
        r_inv((BigInt(1) << 512).mod_inverse(value)) {
    const BigInt two64 = BigInt(1) << 64;
    n0inv = (two64 - (value % two64).mod_inverse(two64)).to_u64();
  }
  BigInt n;
  Limbs8 limbs;
  BigInt r_inv;  // R^-1 mod n, R = 2^512
  std::uint64_t n0inv = 0;
};

// Runs both kernels on (a, b) and checks them against the reference and
// each other, bit for bit. Returns the portable kernel's output.
Limbs8 check_triple(const Modulus& m, const BigInt& a, const BigInt& b) {
  const Limbs8 la = to_limbs(a);
  const Limbs8 lb = to_limbs(b);
  Limbs8 portable{};
  Limbs8 mulx{};
  kernels::mont_mul_portable(portable.data(), la.data(), lb.data(),
                             m.limbs.data(), m.n0inv, 8);
  kernels::mont_mul8(mulx.data(), la.data(), lb.data(), m.limbs.data(),
                     m.n0inv);
  const BigInt expected = (a * b % m.n) * m.r_inv % m.n;
  EXPECT_EQ(from_limbs(portable), expected)
      << "portable n=" << m.n.to_hex() << " a=" << a.to_hex()
      << " b=" << b.to_hex();
  EXPECT_EQ(mulx, portable) << "mulx8 n=" << m.n.to_hex()
                            << " a=" << a.to_hex() << " b=" << b.to_hex();
  return portable;
}

// A value whose limbs are each drawn from {0, 1, 2^63, all-ones, random},
// to drive long carry and borrow runs through both chains.
BigInt patterned(Rng& rng, std::size_t limbs) {
  BigInt out;
  for (std::size_t i = limbs; i-- > 0;) {
    std::uint64_t limb = 0;
    switch (rng.next_below(5)) {
      case 0: limb = 0; break;
      case 1: limb = 1; break;
      case 2: limb = 1ULL << 63; break;
      case 3: limb = ~0ULL; break;
      default: limb = rng.next_u64(); break;
    }
    out = (out << 64) + BigInt(limb);
  }
  return out;
}

// An odd modulus of exactly `bits` bits (bits >= 2): uniform, or with the
// bits below the top one limb-patterned.
BigInt odd_modulus(Rng& rng, std::size_t bits, bool pattern = false) {
  const BigInt top = BigInt(1) << (bits - 1);
  const BigInt n = top + (pattern ? patterned(rng, (bits + 63) / 64) % top
                                  : BigInt::random_bits(rng, bits - 1));
  return n.is_odd() ? n : n + BigInt(1);
}

// An 8-limb modulus: 449 to 512 bits.
BigInt random_modulus(Rng& rng, bool pattern) {
  return odd_modulus(rng, 449 + rng.next_below(64), pattern);
}

BigInt random_operand(Rng& rng, const BigInt& n) {
  return rng.next_below(2) == 0 ? BigInt::random_below(rng, n)
                                : patterned(rng, 8) % n;
}

class BigIntMulx8Test : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::mont_mul8_available()) {
      GTEST_SKIP() << "the CPU lacks BMI2 or ADX (or this is not x86-64): "
                      "no MULX/ADX kernel to test";
    }
  }
};

TEST_F(BigIntMulx8Test, RandomTriplesMatchPortableAndReference) {
  Rng rng(22);
  constexpr int kModuli = 100;
  constexpr int kTriplesPerModulus = 1000;  // 10^5 triples in all
  for (int i = 0; i < kModuli; ++i) {
    const Modulus m(random_modulus(rng, i % 2 == 1));
    ASSERT_TRUE(m.n.bit_length() > 448 && m.n.bit_length() <= 512);
    for (int j = 0; j < kTriplesPerModulus; ++j) {
      check_triple(m, random_operand(rng, m.n), random_operand(rng, m.n));
      if (HasFailure()) return;
    }
  }
}

TEST_F(BigIntMulx8Test, EdgeModuliAndOperands) {
  Rng rng(23);
  const BigInt two512 = BigInt(1) << 512;
  const BigInt upper_ones = two512 - (BigInt(1) << 64);  // limbs 1..7 = ~0
  const std::vector<BigInt> moduli = {
      two512 - BigInt(1),                    // every bit set
      upper_ones + BigInt(1),                // low limb 1
      upper_ones + BigInt(rng.next_u64() | 1),
      (BigInt(1) << 511) + BigInt(1),        // top and bottom bits only
      (BigInt(1) << 448) + BigInt(1),        // narrowest 8-limb modulus
      random_modulus(rng, false),
  };
  for (const BigInt& value : moduli) {
    const Modulus m(value);
    const std::vector<BigInt> operands = {
        BigInt(), BigInt(1), m.n - BigInt(1), two512 % m.n,
        BigInt::random_below(rng, m.n)};
    for (const BigInt& a : operands) {
      for (const BigInt& b : operands) check_triple(m, a, b);
    }
  }
}

TEST_F(BigIntMulx8Test, CompositeModulusFactorsMultiplyToZero) {
  Rng rng(24);
  for (int i = 0; i < 20; ++i) {
    // Two odd 256-bit factors with a 511- or 512-bit product.
    const BigInt p = odd_modulus(rng, 256);
    const BigInt q = odd_modulus(rng, 256);
    const Modulus m(p * q);
    EXPECT_EQ(from_limbs(check_triple(m, p, q)), BigInt());
    EXPECT_EQ(from_limbs(check_triple(m, q, p)), BigInt());
  }
}

TEST_F(BigIntMulx8Test, OutMayAliasEitherInputOrBoth) {
  Rng rng(25);
  for (int i = 0; i < 200; ++i) {
    const Modulus m(random_modulus(rng, i % 2 == 1));
    const BigInt a = random_operand(rng, m.n);
    const BigInt b = random_operand(rng, m.n);

    Limbs8 x = to_limbs(a);  // out == a == b: a squaring in place
    kernels::mont_mul8(x.data(), x.data(), x.data(), m.limbs.data(),
                       m.n0inv);
    EXPECT_EQ(from_limbs(x), (a * a % m.n) * m.r_inv % m.n);

    const BigInt ab = (a * b % m.n) * m.r_inv % m.n;
    x = to_limbs(a);
    const Limbs8 y = to_limbs(b);
    kernels::mont_mul8(x.data(), x.data(), y.data(), m.limbs.data(),
                       m.n0inv);
    EXPECT_EQ(from_limbs(x), ab);
    const Limbs8 z = to_limbs(a);
    x = to_limbs(b);
    kernels::mont_mul8(x.data(), z.data(), x.data(), m.limbs.data(),
                       m.n0inv);
    EXPECT_EQ(from_limbs(x), ab);
  }
}

TEST(BigIntMulx8SelectionTest, EightLimbModuliUseItExactlyWithBmi2AndAdx) {
  Rng rng(26);
  const bool expected = cpu_has_bmi2_and_adx();
  EXPECT_EQ(kernels::mont_mul8_available(), expected);
  for (const std::size_t bits : {449u, 480u, 512u}) {
    EXPECT_EQ(Montgomery64(odd_modulus(rng, bits)).uses_mulx8(), expected)
        << bits;
  }
  // Every other limb count stays on the portable kernel: 448 and 576 bits
  // are the neighbours of the 8-limb range, 1024 the RSA public modulus.
  for (const std::size_t bits : {64u, 448u, 576u, 1024u, 2048u}) {
    EXPECT_FALSE(Montgomery64(odd_modulus(rng, bits)).uses_mulx8()) << bits;
  }
}

}  // namespace
}  // namespace et::crypto
