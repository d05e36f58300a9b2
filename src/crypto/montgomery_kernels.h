// Montgomery multiplication kernels behind Montgomery64 and MontgomeryPair
// (internal).
//
// Montgomery64 and MontgomeryPair pick their kernels once per modulus, at
// construction. The kernels are declared here, outside those classes, so
// the tests can run them side by side on the same inputs. Callers outside
// src/crypto use the classes.
//
// The 64-bit kernels compute out = a * b * R^-1 mod n, fully reduced into
// [0, n), for an odd n of k little-endian 64-bit limbs with a non-zero
// top limb, R = 2^(64k), a, b < n and n0inv = -n^-1 mod 2^64. out may
// alias a or b.
//
// The AVX-512 IFMA kernels (montgomery_ifma.cpp) work in radix 2^52 with
// their own R = 2^(52 D), D digits, and leave products in [0, 2n). They
// are exposed as whole exponentiations over 64-bit limbs, plus the raw
// product for the tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace et::crypto::kernels {

/// Portable CIOS kernel for 1 <= k <= Montgomery64::kMaxLimbs.
void mont_mul_portable(std::uint64_t* out, const std::uint64_t* a,
                       const std::uint64_t* b, const std::uint64_t* n,
                       std::uint64_t n0inv, std::size_t k);

/// True when this build carries the 8-limb MULX/ADCX/ADOX kernel (x86-64)
/// and the CPU reports BMI2 and ADX.
bool mont_mul8_available();

/// The same product for k = 8, with MULX/ADCX/ADOX. Call it only when
/// mont_mul8_available().
void mont_mul8(std::uint64_t* out, const std::uint64_t* a,
               const std::uint64_t* b, const std::uint64_t* n,
               std::uint64_t n0inv);

/// True when this build carries the AVX-512 IFMA kernels (x86-64) and the
/// CPU reports AVX512-IFMA and AVX512VL.
bool ifma_available();

/// Digits of the two IFMA instances: 10 for 8-limb moduli (R = 2^520),
/// 20 for 16-limb moduli (R = 2^1040). Both keep 4n <= R.
inline constexpr std::size_t kIfmaPairDigits = 10;
inline constexpr std::size_t kIfmaWideDigits = 20;

/// One exponentiation out = base^e mod n on an IFMA kernel. Every value is
/// k little-endian 64-bit limbs (k = 8 or 16) with base < n, n odd,
/// n0inv = -n^-1 mod 2^64 and rr = R^2 mod n for the kernel's R. e is in
/// BigInt's layout: e_limbs little-endian 32-bit limbs, no zero top limb.
/// out may alias base.
struct IfmaPow {
  std::uint64_t* out;
  const std::uint64_t* base;
  const std::uint32_t* e;
  std::size_t e_limbs;
  const std::uint64_t* n;
  const std::uint64_t* rr;
  std::uint64_t n0inv;
};

/// Both exponentiations over two 8-limb moduli in one lockstep pass of the
/// 2-way kernel. Call only when ifma_available().
void ifma_pow8x2(const IfmaPow& p, const IfmaPow& q);

/// One exponentiation over a 16-limb modulus on the 1-way kernel. Call
/// only when ifma_available().
void ifma_pow16(const IfmaPow& op);

/// out = a * b mod n, fully reduced, for a 16-limb n and a, b < n, with rr
/// and n0inv as for IfmaPow. out may alias a or b. Call only when
/// ifma_available().
void ifma_mul16(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, const std::uint64_t* n,
                std::uint64_t n0inv, const std::uint64_t* rr);

/// One almost-Montgomery product out = a * b * 2^(-52 D) mod n in [0, 2n),
/// every value D radix-2^52 digits (each below 2^52), for a, b < 2n,
/// 4n <= 2^(52 D) and k0 = -n^-1 mod 2^52. out may alias a or b.
struct Amm52 {
  std::uint64_t* out;
  const std::uint64_t* a;
  const std::uint64_t* b;
  const std::uint64_t* n;
  std::uint64_t k0;
};

/// Two products of kIfmaPairDigits digits on the 2-way kernel. Call only
/// when ifma_available().
void ifma_amm10x2(const Amm52& x, const Amm52& y);

/// One product of kIfmaWideDigits digits on the 1-way kernel. Call only
/// when ifma_available().
void ifma_amm20(const Amm52& x);

}  // namespace et::crypto::kernels
