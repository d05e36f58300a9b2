// Arbitrary-precision unsigned integers for the RSA implementation.
//
// Little-endian vector of 32-bit limbs. Supports the operations RSA needs:
// comparison, add/sub/mul, Knuth Algorithm-D division, shifts, modular
// exponentiation, extended-Euclid modular inverse, and Miller-Rabin
// primality testing. Exponentiation modulo an odd modulus of up to 2048 bits
// runs on Montgomery64, a 64-bit-limb CIOS kernel over fixed-capacity stack
// arrays that allocates nothing per multiplication.
//
// NOT constant-time. This is a reproduction-quality implementation whose
// purpose is to recreate the *cost structure* of the paper's BouncyCastle
// stack (sign >> verify >> symmetric ops), not to protect real keys.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace et::crypto {

struct DivMod;

/// Unsigned big integer.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From a machine word.
  explicit BigInt(std::uint64_t v);

  /// Big-endian octets → integer (leading zeros allowed).
  static BigInt from_bytes(BytesView b);

  /// Parses decimal, or hex when prefixed with "0x".
  static BigInt parse(std::string_view text);

  /// Uniform value in [0, 2^bits) from `rng`.
  static BigInt random_bits(Rng& rng, std::size_t bits);

  /// Uniform value in [0, bound) from `rng` (bound > 0).
  static BigInt random_below(Rng& rng, const BigInt& bound);

  /// Big-endian octets, minimal length (empty for zero) unless `min_len`
  /// asks for left-padding with zeros.
  [[nodiscard]] Bytes to_bytes(std::size_t min_len = 0) const;

  /// Decimal representation.
  [[nodiscard]] std::string to_string() const;
  /// Lower-case hex, no prefix, "0" for zero.
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of bit `i` (0 = LSB).
  [[nodiscard]] bool bit(std::size_t i) const;

  [[nodiscard]] std::uint64_t to_u64() const;  // throws if it doesn't fit

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  BigInt operator+(const BigInt& rhs) const;
  /// Requires *this >= rhs (unsigned); throws std::underflow_error otherwise.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Quotient; throws std::domain_error on division by zero.
  BigInt operator/(const BigInt& rhs) const;
  /// Remainder; throws std::domain_error on division by zero.
  BigInt operator%(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass (Knuth Algorithm D).
  [[nodiscard]] DivMod divmod(const BigInt& divisor) const;

  /// (this ^ exponent) mod modulus. Runs on Montgomery64 when it supports the
  /// modulus (odd, at most 2048 bits); classical square-and-multiply
  /// otherwise. modulus > 1 required.
  [[nodiscard]] BigInt mod_exp(const BigInt& exponent,
                               const BigInt& modulus) const;

  /// Greatest common divisor.
  static BigInt gcd(BigInt a, BigInt b);

  /// Multiplicative inverse of *this mod `modulus`; throws
  /// std::domain_error when gcd(this, modulus) != 1.
  [[nodiscard]] BigInt mod_inverse(const BigInt& modulus) const;

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  [[nodiscard]] bool is_probable_prime(Rng& rng, int rounds = 32) const;

  /// Generates a random prime with exactly `bits` bits (top two bits set so
  /// products have full length, as RSA key generation requires).
  static BigInt generate_prime(Rng& rng, std::size_t bits, int mr_rounds = 32);

 private:
  void trim();
  static BigInt add_impl(const BigInt& a, const BigInt& b);
  static BigInt sub_impl(const BigInt& a, const BigInt& b);

  friend class Montgomery64;
  std::vector<std::uint32_t> limbs_;  // little-endian, no trailing zeros
};

/// Result of BigInt::divmod.
struct DivMod {
  BigInt quotient;
  BigInt remainder;
};

/// Montgomery arithmetic modulo one odd modulus of at most kMaxBits bits.
///
/// Operands are fixed-capacity arrays of 64-bit limbs indexed by the
/// modulus's runtime limb count. Multiplication is CIOS and squaring is
/// square-then-reduce, both on 128-bit products, and nothing is allocated
/// per operation. This one kernel serves the RSA public and CRT private
/// operations, BigInt::mod_exp and Miller-Rabin. Immutable after
/// construction, so one instance may be shared across threads.
class Montgomery64 {
 public:
  static constexpr std::size_t kMaxLimbs = 32;
  static constexpr std::size_t kMaxBits = 64 * kMaxLimbs;  // 2048

  /// True when `modulus` is odd, > 1 and at most kMaxBits bits wide.
  static bool supports(const BigInt& modulus);

  /// Precomputes -n^-1 mod 2^64 and R^2 mod n, with R = 2^(64 * limbs).
  /// Throws std::domain_error unless supports(modulus).
  explicit Montgomery64(const BigInt& modulus);

  /// (a * b) mod n, for operands of any size.
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;

  /// (base ^ exponent) mod n, for a base of any size. Left-to-right sliding
  /// windows sized to the exponent: plain square-and-multiply for short
  /// public exponents such as 65537, up to 5-bit windows for long ones.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exponent) const;

 private:
  // Little-endian; only the low k_ limbs of a value are ever read.
  using Limbs = std::array<std::uint64_t, kMaxLimbs>;

  /// out = a * b * R^-1 mod n for a, b < n. out may alias a or b.
  void mont_mul(Limbs& out, const Limbs& a, const Limbs& b) const;
  /// out = a * a * R^-1 mod n for a < n. out may alias a.
  void mont_sqr(Limbs& out, const Limbs& a) const;
  /// out = t * R^-1 mod n for a 2k-limb t < n * R. Clobbers t.
  void redc(Limbs& out, std::uint64_t* t) const;
  /// out = (t + top * R) mod n for a k-limb t with t + top * R < 2n.
  void reduce_once(Limbs& out, std::uint64_t* t, std::uint64_t top) const;
  /// x mod n in normal (not Montgomery) form.
  void load(Limbs& out, const BigInt& x) const;
  /// Low k_ limbs of x as a BigInt.
  [[nodiscard]] BigInt store(const Limbs& x) const;

  Limbs n_{};
  Limbs r2_{};               // R^2 mod n
  std::uint64_t n0inv_ = 0;  // -n^-1 mod 2^64
  std::size_t k_ = 0;        // limb count of n
};

}  // namespace et::crypto
