// The AVX-512 IFMA kernels against the portable kernel and a BigInt
// reference: the raw almost-Montgomery products a * b * 2^(-52 D) mod n of
// the 2-way (10-digit) and 1-way (20-digit) instances, the lockstep pair's
// exponentiation through MontgomeryPair, and which moduli the kernels are
// chosen for.
#include "src/crypto/montgomery_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/crypto/bigint.h"

namespace et::crypto {
namespace {

constexpr std::uint64_t kMask52 = (1ULL << 52) - 1;

// What the selection should be, asked of the CPU independently of the
// library.
bool cpu_has_ifma_and_vl() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512ifma") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

bool cpu_has_bmi2_and_adx() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
#else
  return false;
#endif
}

// The low radix_bits * count bits of x as count digits of radix_bits
// (52 or 64) bits, little-endian.
std::vector<std::uint64_t> radix_digits(const BigInt& x,
                                        std::size_t radix_bits,
                                        std::size_t count) {
  const std::size_t words = (radix_bits * count + 63) / 64 + 1;
  const Bytes be = x.to_bytes(8 * words);
  std::vector<std::uint64_t> w(words, 0);
  for (std::size_t i = 0; i < 8 * words; ++i) {
    w[i / 8] |= std::uint64_t{be[be.size() - 1 - i]} << (8 * (i % 8));
  }
  const std::uint64_t mask =
      radix_bits == 64 ? ~0ULL : (1ULL << radix_bits) - 1;
  std::vector<std::uint64_t> out(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t word = radix_bits * j / 64;
    const std::size_t shift = radix_bits * j % 64;
    std::uint64_t v = w[word] >> shift;
    if (shift > 64 - radix_bits) v |= w[word + 1] << (64 - shift);
    out[j] = v & mask;
  }
  return out;
}

BigInt from_radix(const std::vector<std::uint64_t>& digits,
                  std::size_t radix_bits) {
  const std::size_t words = (radix_bits * digits.size() + 63) / 64 + 1;
  std::vector<std::uint64_t> w(words, 0);
  for (std::size_t j = 0; j < digits.size(); ++j) {
    const std::size_t word = radix_bits * j / 64;
    const std::size_t shift = radix_bits * j % 64;
    w[word] |= digits[j] << shift;
    if (shift > 0) w[word + 1] |= digits[j] >> (64 - shift);
  }
  Bytes be(8 * words);
  for (std::size_t i = 0; i < be.size(); ++i) {
    be[be.size() - 1 - i] =
        static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  return BigInt::from_bytes(be);
}

// A value whose 64-bit limbs are each drawn from {0, 1, 2^63, all-ones,
// random}, to drive long carry runs.
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

BigInt odd_modulus(Rng& rng, std::size_t bits, bool pattern = false) {
  const BigInt top = BigInt(1) << (bits - 1);
  const BigInt n = top + (pattern ? patterned(rng, (bits + 63) / 64) % top
                                  : BigInt::random_bits(rng, bits - 1));
  return n.is_odd() ? n : n + BigInt(1);
}

// One instance's modulus with its constants, each derived through BigInt:
// k limbs of 64 bits for the portable kernel, D digits of 52 for IFMA.
struct Modulus {
  Modulus(const BigInt& value, std::size_t k, std::size_t d)
      : n(value), limbs(k), digits(d) {
    n64 = radix_digits(value, 64, k);
    n52 = radix_digits(value, 52, digits);
    const BigInt two52 = BigInt(1) << 52;
    k0 = (two52 - (value % two52).mod_inverse(two52)).to_u64();
    const BigInt two64 = BigInt(1) << 64;
    n0inv = (two64 - (value % two64).mod_inverse(two64)).to_u64();
    r52_inv = (BigInt(1) << (52 * digits)).mod_inverse(value);
    // With R = 2^(64k), portable(portable(a, b), to_r52) = a * b / R *
    // (R^2 / 2^(52 D)) / R = a * b / 2^(52 D) mod n.
    to_r52 = ((BigInt(1) << (128 * k)) * r52_inv) % value;
  }
  BigInt n;
  std::size_t limbs;
  std::size_t digits;
  std::vector<std::uint64_t> n64;
  std::vector<std::uint64_t> n52;
  std::uint64_t k0 = 0;
  std::uint64_t n0inv = 0;
  BigInt r52_inv;  // 2^(-52 D) mod n
  BigInt to_r52;
};

BigInt portable_mul(const Modulus& m, const BigInt& a, const BigInt& b) {
  const auto la = radix_digits(a, 64, m.limbs);
  const auto lb = radix_digits(b, 64, m.limbs);
  std::vector<std::uint64_t> out(m.limbs);
  kernels::mont_mul_portable(out.data(), la.data(), lb.data(), m.n64.data(),
                             m.n0inv, m.limbs);
  return from_radix(out, 64);
}

// Checks one IFMA output for operands a, b < 2n: normalized digits, below
// 2n, and congruent to the BigInt reference and to the portable kernel.
void check_output(const Modulus& m, const BigInt& a, const BigInt& b,
                  const std::vector<std::uint64_t>& out) {
  for (const std::uint64_t d : out) ASSERT_LE(d, kMask52);
  const BigInt got = from_radix(out, 52);
  ASSERT_LT(got, m.n + m.n) << "n=" << m.n.to_hex() << " a=" << a.to_hex()
                            << " b=" << b.to_hex();
  const BigInt expected = (a * b % m.n) * m.r52_inv % m.n;
  ASSERT_EQ(got % m.n, expected)
      << "n=" << m.n.to_hex() << " a=" << a.to_hex() << " b=" << b.to_hex();
  const BigInt portable =
      portable_mul(m, portable_mul(m, a % m.n, b % m.n), m.to_r52);
  ASSERT_EQ(portable, expected) << "portable n=" << m.n.to_hex();
}

// Runs the 2-way kernel on (a[0], b[0]) mod m[0] and (a[1], b[1]) mod m[1].
void check_pair(const Modulus* m, const BigInt* a, const BigInt* b) {
  std::vector<std::uint64_t> da[2], db[2], out[2];
  kernels::Amm52 ops[2];
  for (std::size_t w = 0; w < 2; ++w) {
    da[w] = radix_digits(a[w], 52, kernels::kIfmaPairDigits);
    db[w] = radix_digits(b[w], 52, kernels::kIfmaPairDigits);
    out[w].assign(kernels::kIfmaPairDigits, ~0ULL);
    ops[w] = {out[w].data(), da[w].data(), db[w].data(), m[w].n52.data(),
              m[w].k0};
  }
  kernels::ifma_amm10x2(ops[0], ops[1]);
  for (std::size_t w = 0; w < 2; ++w) check_output(m[w], a[w], b[w], out[w]);
}

void check_wide(const Modulus& m, const BigInt& a, const BigInt& b) {
  const auto da = radix_digits(a, 52, kernels::kIfmaWideDigits);
  const auto db = radix_digits(b, 52, kernels::kIfmaWideDigits);
  std::vector<std::uint64_t> out(kernels::kIfmaWideDigits, ~0ULL);
  kernels::ifma_amm20({out.data(), da.data(), db.data(), m.n52.data(), m.k0});
  check_output(m, a, b, out);
}

// An operand below 2n: uniform or limb-patterned below n, or in [n, 2n).
BigInt random_operand(Rng& rng, const BigInt& n) {
  switch (rng.next_below(4)) {
    case 0: return BigInt::random_below(rng, n);
    case 1: return patterned(rng, (n.bit_length() + 63) / 64) % n;
    case 2: return n + BigInt::random_below(rng, n);
    default: return (n + n) - BigInt(1) - patterned(rng, 2) % n;
  }
}

// Edge operands below 2n.
std::vector<BigInt> edge_operands(Rng& rng, const BigInt& n,
                                  std::size_t digits) {
  return {BigInt(),        BigInt(1),
          n - BigInt(1),   n,
          n + BigInt(1),   n + n - BigInt(1),
          (BigInt(1) << (52 * digits)) % n, BigInt::random_below(rng, n)};
}

class BigIntIfmaKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernels::ifma_available()) {
      GTEST_SKIP() << "the CPU lacks AVX512-IFMA or AVX512VL (or this is "
                      "not x86-64): no IFMA kernel to test";
    }
  }
};

TEST_F(BigIntIfmaKernelTest, PairRandomTriplesMatchPortableAndReference) {
  Rng rng(2301);
  constexpr int kModuli = 100;
  constexpr int kCallsPerModulus = 1000;  // 10^5 triples on each way
  for (int i = 0; i < kModuli; ++i) {
    const Modulus m[2] = {
        Modulus(odd_modulus(rng, 449 + rng.next_below(64), i % 2 == 1), 8,
                kernels::kIfmaPairDigits),
        Modulus(odd_modulus(rng, 449 + rng.next_below(64), i % 3 == 1), 8,
                kernels::kIfmaPairDigits)};
    for (int j = 0; j < kCallsPerModulus; ++j) {
      const BigInt a[2] = {random_operand(rng, m[0].n),
                           random_operand(rng, m[1].n)};
      const BigInt b[2] = {random_operand(rng, m[0].n),
                           random_operand(rng, m[1].n)};
      check_pair(m, a, b);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(BigIntIfmaKernelTest, WideRandomTriplesMatchPortableAndReference) {
  Rng rng(2302);
  constexpr int kModuli = 100;
  constexpr int kTriplesPerModulus = 1000;  // 10^5 triples in all
  for (int i = 0; i < kModuli; ++i) {
    const Modulus m(odd_modulus(rng, 961 + rng.next_below(64), i % 2 == 1),
                    16, kernels::kIfmaWideDigits);
    for (int j = 0; j < kTriplesPerModulus; ++j) {
      check_wide(m, random_operand(rng, m.n), random_operand(rng, m.n));
      if (HasFatalFailure()) return;
    }
  }
}

TEST_F(BigIntIfmaKernelTest, PairEdgeModuliAndOperands) {
  Rng rng(2303);
  const BigInt two512 = BigInt(1) << 512;
  const BigInt upper_ones = two512 - (BigInt(1) << 64);  // limbs 1..7 = ~0
  const std::vector<BigInt> moduli = {
      two512 - BigInt(1),                    // every bit set
      upper_ones + BigInt(1),                // low limb 1
      upper_ones + BigInt(rng.next_u64() | 1),
      (BigInt(1) << 511) + BigInt(1),        // top and bottom bits only
      (BigInt(1) << 448) + BigInt(1),        // narrowest 8-limb modulus
      odd_modulus(rng, 500),
  };
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    // Each edge modulus on one way, its neighbour in the list on the other.
    const Modulus m[2] = {
        Modulus(moduli[i], 8, kernels::kIfmaPairDigits),
        Modulus(moduli[(i + 1) % moduli.size()], 8, kernels::kIfmaPairDigits)};
    const auto ops0 = edge_operands(rng, m[0].n, kernels::kIfmaPairDigits);
    const auto ops1 = edge_operands(rng, m[1].n, kernels::kIfmaPairDigits);
    for (std::size_t x = 0; x < ops0.size(); ++x) {
      for (std::size_t y = 0; y < ops0.size(); ++y) {
        const BigInt a[2] = {ops0[x], ops1[y]};
        const BigInt b[2] = {ops0[y], ops1[x]};
        check_pair(m, a, b);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(BigIntIfmaKernelTest, WideEdgeModuliAndOperands) {
  Rng rng(2304);
  const BigInt two1024 = BigInt(1) << 1024;
  const BigInt upper_ones = two1024 - (BigInt(1) << 64);
  const std::vector<BigInt> moduli = {
      two1024 - BigInt(1),
      upper_ones + BigInt(1),
      upper_ones + BigInt(rng.next_u64() | 1),
      (BigInt(1) << 1023) + BigInt(1),
      (BigInt(1) << 960) + BigInt(1),  // narrowest 16-limb modulus
      odd_modulus(rng, 1000),
  };
  for (const BigInt& value : moduli) {
    const Modulus m(value, 16, kernels::kIfmaWideDigits);
    const auto ops = edge_operands(rng, m.n, kernels::kIfmaWideDigits);
    for (const BigInt& a : ops) {
      for (const BigInt& b : ops) {
        check_wide(m, a, b);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(BigIntIfmaKernelTest, CompositeModulusFactorsMultiplyToZero) {
  Rng rng(2305);
  for (int i = 0; i < 20; ++i) {
    const BigInt p = odd_modulus(rng, 256);
    const BigInt q = odd_modulus(rng, 256);
    const BigInt p2 = odd_modulus(rng, 512);
    const BigInt q2 = odd_modulus(rng, 512);
    const Modulus pair[2] = {Modulus(p * q, 8, kernels::kIfmaPairDigits),
                             Modulus(q * p, 8, kernels::kIfmaPairDigits)};
    const BigInt a[2] = {p, q};
    const BigInt b[2] = {q, p};
    check_pair(pair, a, b);
    check_wide(Modulus(p2 * q2, 16, kernels::kIfmaWideDigits), p2, q2);
    if (HasFatalFailure()) return;
  }
}

// A 1-way product lands in [n, 2n), and for a modulus whose top bits are
// all ones that range crosses 2^1024: the seventeenth word must survive
// the conversion back to limbs. Pinned from a search over random operands.
TEST_F(BigIntIfmaKernelTest, WideMulReducesAProductAbove2To1024) {
  const BigInt n = BigInt::parse(
      "0xfffff805475ce6292f4bd95ea8f71cfbbd070cc584cda4ab825fddf33334073fe01"
      "24599971035485860960629ee243600ecd8dfd70b48ce54e0b6621a13b44db04507d"
      "cdb378e28a2b7fcf91be3b2f064d4bca2e9b83e1464f6a915d381f7a4f3b17d3082b"
      "4700064170da47e1707a3716d59e1e51614cbd8dcacf1bca6b707");
  const BigInt a = BigInt::parse(
      "0xfffff72a325ccc9ffc5881d5ce3e29c252f5327d3003db53289a30f8c798b0bccb9"
      "9bc4a0859480bd566f3d7f40f43a24b0b8a708b63453b7d2ae0f8a3935285c9b276a"
      "c565e2ccb7730270d6c2e3fd42e7ca4410a72de0fb02ee19481dbf25fb6b872740c1"
      "c9cb4fe5d9f707d6737bac927b3569b36ba85e2538fe6c4303919");
  const BigInt b = BigInt::parse(
      "0xfffff77418621a647f65a4d3237f489732334ec7607b88eb463c1e24a75a2bdd408"
      "c462d10fe8b4ade3b3f1147a4bf373d38d250fe3411883893f4c186013c98842edab"
      "3c3146a58fd2d81d18955fbfe3018b8925dfcb462a24c4a6c0b6d89c9ef05c97e2ef"
      "bc0007cb8fa5c801c353fa72707dcf933dc34295fee87c8f24a06");
  const Montgomery64 mont(n);
  ASSERT_TRUE(mont.uses_ifma());
  EXPECT_EQ(mont.mul(a, b), a * b % n);
  EXPECT_EQ(mont.mul(b, a), a * b % n);
}

// The lockstep exponentiation against one Montgomery64 per half, and
// against BigInt::mod_exp's classical reference for the even-length cases.
class BigIntIfmaPairPowTest : public BigIntIfmaKernelTest {
 protected:
  void check(const MontgomeryPair& pair, const BigInt& p, const BigInt& q,
             const BigInt& base, const BigInt& ep, const BigInt& eq) {
    ASSERT_TRUE(pair.lockstep());
    const auto got = pair.pow(base, ep, eq);
    EXPECT_EQ(got[0], Montgomery64(p).pow(base, ep))
        << "p=" << p.to_hex() << " ep=" << ep.to_hex();
    EXPECT_EQ(got[1], Montgomery64(q).pow(base, eq))
        << "q=" << q.to_hex() << " eq=" << eq.to_hex();
  }
};

TEST_F(BigIntIfmaPairPowTest, UnequalExponentLengths) {
  Rng rng(2306);
  for (int i = 0; i < 20; ++i) {
    const BigInt p = odd_modulus(rng, 449 + rng.next_below(64));
    const BigInt q = odd_modulus(rng, 449 + rng.next_below(64));
    const MontgomeryPair pair(p, q);
    const BigInt base = BigInt::random_bits(rng, 1024);
    const std::size_t long_bits = 1 + rng.next_below(600);
    const std::size_t short_bits = 1 + rng.next_below(long_bits);
    const BigInt e_long = BigInt::random_bits(rng, long_bits - 1) +
                          (BigInt(1) << (long_bits - 1));
    const BigInt e_short = BigInt::random_bits(rng, short_bits);
    check(pair, p, q, base, e_long, e_short);
    check(pair, p, q, base, e_short, e_long);
    if (HasFatalFailure()) return;
  }
}

TEST_F(BigIntIfmaPairPowTest, ExponentsZeroOneAndPowersOfTwo) {
  Rng rng(2307);
  const BigInt p = odd_modulus(rng, 512);
  const BigInt q = odd_modulus(rng, 480);
  const MontgomeryPair pair(p, q);
  std::vector<BigInt> exponents = {BigInt(), BigInt(1)};
  for (const std::size_t k : {1u, 4u, 5u, 31u, 32u, 33u, 64u, 320u, 511u}) {
    exponents.push_back(BigInt(1) << k);
  }
  const std::vector<BigInt> bases = {BigInt(), BigInt(1), p - BigInt(1),
                                     q - BigInt(1), p, q * p,
                                     BigInt::random_bits(rng, 1024)};
  for (const BigInt& base : bases) {
    for (const BigInt& ep : exponents) {
      for (const BigInt& eq : exponents) {
        check(pair, p, q, base, ep, eq);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(BigIntIfmaPairPowTest, FullLengthCrtExponents) {
  Rng rng(2308);
  for (int i = 0; i < 20; ++i) {
    const BigInt p = BigInt::generate_prime(rng, 512, 4);
    const BigInt q = BigInt::generate_prime(rng, 512, 4);
    const BigInt base = BigInt::random_below(rng, p * q);
    const BigInt ep = BigInt::random_below(rng, p - BigInt(1));
    const BigInt eq = BigInt::random_below(rng, q - BigInt(1));
    const MontgomeryPair pair(p, q);
    const auto got = pair.pow(base, ep, eq);
    EXPECT_EQ(got[0], base.mod_exp(ep, p));
    EXPECT_EQ(got[1], base.mod_exp(eq, q));
  }
}

TEST(BigIntIfmaSelectionTest, IfmaRunsExactlyWithIfmaVlAndFittingLimbs) {
  Rng rng(2309);
  const bool ifma = cpu_has_ifma_and_vl();
  const bool mulx = cpu_has_bmi2_and_adx();
  EXPECT_EQ(kernels::ifma_available(), ifma);
  // 16 limbs: the 1-way kernel; nothing else changes.
  for (const std::size_t bits : {961u, 1000u, 1024u}) {
    const Montgomery64 mont(odd_modulus(rng, bits));
    EXPECT_EQ(mont.uses_ifma(), ifma) << bits;
    EXPECT_FALSE(mont.uses_mulx8()) << bits;
  }
  // 8 limbs: single exponentiations stay on today's MULX or portable kernel.
  for (const std::size_t bits : {449u, 480u, 512u}) {
    const Montgomery64 mont(odd_modulus(rng, bits));
    EXPECT_FALSE(mont.uses_ifma()) << bits;
    EXPECT_EQ(mont.uses_mulx8(), mulx) << bits;
  }
  for (const std::size_t bits : {64u, 448u, 513u, 960u, 1025u, 2048u}) {
    const Montgomery64 mont(odd_modulus(rng, bits));
    EXPECT_FALSE(mont.uses_ifma()) << bits;
    EXPECT_FALSE(mont.uses_mulx8()) << bits;
  }
  // The pair runs in lockstep only when both halves have 8 limbs.
  EXPECT_EQ(MontgomeryPair(odd_modulus(rng, 512), odd_modulus(rng, 449))
                .lockstep(),
            ifma);
  EXPECT_EQ(MontgomeryPair(odd_modulus(rng, 480), odd_modulus(rng, 480))
                .lockstep(),
            ifma);
  EXPECT_FALSE(
      MontgomeryPair(odd_modulus(rng, 512), odd_modulus(rng, 448)).lockstep());
  EXPECT_FALSE(
      MontgomeryPair(odd_modulus(rng, 513), odd_modulus(rng, 512)).lockstep());
  EXPECT_FALSE(MontgomeryPair(odd_modulus(rng, 1024), odd_modulus(rng, 1024))
                   .lockstep());
  EXPECT_THROW(MontgomeryPair(BigInt(100), odd_modulus(rng, 512)),
               std::domain_error);
}

TEST(BigIntIfmaSelectionTest, PairPowMatchesSeparatePowsOnEveryCpu) {
  Rng rng(2310);
  for (const std::size_t bits : {256u, 480u, 512u, 1024u}) {
    const BigInt p = odd_modulus(rng, bits);
    const BigInt q = odd_modulus(rng, bits - 3);
    const BigInt base = BigInt::random_bits(rng, 2 * bits);
    const BigInt ep = BigInt::random_bits(rng, bits);
    const BigInt eq = BigInt::random_bits(rng, bits / 2);
    const auto got = MontgomeryPair(p, q).pow(base, ep, eq);
    EXPECT_EQ(got[0], Montgomery64(p).pow(base, ep)) << bits;
    EXPECT_EQ(got[1], Montgomery64(q).pow(base, eq)) << bits;
  }
}

}  // namespace
}  // namespace et::crypto
