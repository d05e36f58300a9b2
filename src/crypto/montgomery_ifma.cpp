// AVX-512 IFMA Montgomery kernels: almost-Montgomery multiplication (AMM)
// in radix 2^52 on 256-bit registers, in the style of Gueron and Krasnov,
// "Accelerating Big Integer Arithmetic Using Intel IFMA Extensions"
// (ARITH 2016), and OpenSSL's rsaz-avx512.
//
// A value of D digits sits in ceil(D / 4) ymm registers, one 52-bit digit
// per 64-bit lane. AMM(a, b) = (a * b + Y * n) / R with R = 2^(52 D) and Y
// chosen digit by digit to clear the low 52 D bits. Its result is below
// a * b / R + n, so for a, b < 2n and 4n <= R it stays below 2n: residues
// live in [0, 2n) and are never fully reduced until the exponentiation's
// last step. Row i of the product:
//  1. The scalar unit tracks digit 0 exactly: it adds a_0 * b_i, picks
//     y_i = digit0 * k0 mod 2^52 with k0 = -n^-1 mod 2^52, adds n_0 * y_i
//     and keeps the carry out of the 52 cleared bits.
//  2. VPMADD52LUQ adds the low halves of a_j * b_i and n_j * y_i to every
//     lane; lane 1 then holds the next digit 0 less that carry.
//  3. The accumulator moves down one lane (VALIGNQ), and VPMADD52HUQ adds
//     the high halves, which belong one digit up.
// Lanes collect unnormalized sums (below 2^60 after 20 rows); one pass of
// shifted carries and a carry-lookahead over the lane masks normalize them.
//
// Two instances:
//  - 2-way, 10 digits (R = 2^520): two independent 8-limb moduli (449 to
//    512 bits, the CRT halves of RSA-1024) in one lockstep pass. The two
//    carry chains interleave, so the second product hides the first's
//    latency.
//  - 1-way, 20 digits (R = 2^1040): one 16-limb modulus (961 to 1024
//    bits), the public operation behind every RSA-1024 verify.
// Each has its own fixed-window exponentiation; see montgomery_kernels.h
// for the interface. The code is intrinsics under a function-level target
// attribute, so the library needs no global -m flag; the sanitizers
// instrument its loads and stores.
#include "src/crypto/montgomery_kernels.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__)

#include <immintrin.h>

#define ET_IFMA_TARGET __attribute__((target("avx512ifma,avx512vl")))

namespace et::crypto::kernels {

namespace {

__extension__ typedef unsigned __int128 u128;

constexpr std::uint64_t kMask52 = (1ULL << 52) - 1;

// One value in radix 2^52, padded with zero digits to whole registers.
template <std::size_t D>
struct Digits {
  static constexpr std::size_t kRegs = (D + 3) / 4;
  alignas(32) std::uint64_t d[4 * kRegs];
};

// A modulus with k0 = -n^-1 mod 2^52.
template <std::size_t D>
struct Modulus {
  Digits<D> n;
  std::uint64_t k0;
};

// Digits of a k-limb value; digits past the value's width are zero.
template <std::size_t D>
void to_digits(Digits<D>& out, const std::uint64_t* x, std::size_t k) {
  for (std::size_t j = 0; j < 4 * Digits<D>::kRegs; ++j) {
    const std::size_t word = 52 * j / 64;
    const std::size_t shift = 52 * j % 64;
    std::uint64_t v = word < k ? x[word] >> shift : 0;
    if (shift > 12 && word + 1 < k) v |= x[word + 1] << (64 - shift);
    out.d[j] = v & kMask52;
  }
}

// The k-limb value of a digit string below 2n, reduced once into [0, n).
// A value below 2n may reach 2^(64k) when n is close to it, so the digits
// are gathered into one word more than the result has.
template <std::size_t D>
void from_digits(std::uint64_t* out, const Digits<D>& x,
                 const std::uint64_t* n, std::size_t k) {
  std::uint64_t words[kIfmaWideDigits * 52 / 64 + 1] = {};
  for (std::size_t j = 0; j < D; ++j) {
    const std::size_t word = 52 * j / 64;
    const std::size_t shift = 52 * j % 64;
    words[word] |= x.d[j] << shift;
    if (shift > 12) words[word + 1] |= x.d[j] >> (64 - shift);
  }
  std::copy_n(words, k, out);
  bool ge = words[k] != 0;
  if (!ge) {
    ge = true;  // out == n reduces to zero
    for (std::size_t j = k; j-- > 0;) {
      if (out[j] != n[j]) {
        ge = out[j] > n[j];
        break;
      }
    }
  }
  if (!ge) return;
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t d = out[j] - n[j] - borrow;
    borrow = (out[j] < n[j]) || (out[j] - n[j] < borrow);
    out[j] = d;
  }
}

ET_IFMA_TARGET inline __m256i load4(const std::uint64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

ET_IFMA_TARGET inline __m256i splat(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

// out[w] = a[w] * b[w] / 2^(52 D) mod m[w], in [0, 2 m[w]), for W
// independent products. a, b < 2m; out may alias a or b.
template <std::size_t W, std::size_t D>
ET_IFMA_TARGET __attribute__((noinline)) void amm(Digits<D>* out,
                                                   const Digits<D>* a,
                                                   const Digits<D>* b,
                                                   const Modulus<D>* m) {
  constexpr std::size_t L = Digits<D>::kRegs;
  const __m256i zero = _mm256_setzero_si256();
  __m256i A[W][L];
  __m256i N[W][L];
  __m256i R[W][L];
  std::uint64_t acc[W];
#pragma GCC unroll 4
  for (std::size_t w = 0; w < W; ++w) {
    acc[w] = 0;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < L; ++l) {
      A[w][l] = load4(a[w].d + 4 * l);
      N[w][l] = load4(m[w].n.d + 4 * l);
      R[w][l] = zero;
    }
  }

  // Each step runs for every way before the next step, so the ways'
  // chains interleave.
  for (std::size_t i = 0; i < D; ++i) {
    __m256i vb[W];
    __m256i vy[W];
    std::uint64_t carry[W];
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t bi = b[w].d[i];
      u128 t = static_cast<u128>(a[w].d[0]) * bi + acc[w];
      const std::uint64_t y =
          (static_cast<std::uint64_t>(t) * m[w].k0) & kMask52;
      t += static_cast<u128>(m[w].n.d[0]) * y;
      carry[w] = static_cast<std::uint64_t>(t >> 52);
      vb[w] = splat(bi);
      vy[w] = splat(y);
    }
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
#pragma GCC unroll 8
      for (std::size_t l = 0; l < L; ++l) {
        R[w][l] = _mm256_madd52lo_epu64(R[w][l], A[w][l], vb[w]);
        R[w][l] = _mm256_madd52lo_epu64(R[w][l], N[w][l], vy[w]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      // Lane 1 is the next digit 0 less t's carry. Lane 0 is never read:
      // t holds digit 0.
      acc[w] = carry[w] +
               static_cast<std::uint64_t>(_mm256_extract_epi64(R[w][0], 1));
#pragma GCC unroll 8
      for (std::size_t l = 0; l < L; ++l) {
        const __m256i upper = l + 1 < L ? R[w][l + 1] : zero;
        R[w][l] = _mm256_alignr_epi64(upper, R[w][l], 1);
      }
    }
    // The high halves land one digit up. Lane 0 picks up those of a_0 * b_i
    // and n_0 * y_i, which t already carried into acc; it is dropped by the
    // next row and overwritten after the last.
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
#pragma GCC unroll 8
      for (std::size_t l = 0; l < L; ++l) {
        R[w][l] = _mm256_madd52hi_epu64(R[w][l], A[w][l], vb[w]);
        R[w][l] = _mm256_madd52hi_epu64(R[w][l], N[w][l], vy[w]);
      }
    }
  }

  const __m256i mask = splat(kMask52);
#pragma GCC unroll 4
  for (std::size_t w = 0; w < W; ++w) {
    R[w][0] = _mm256_mask_blend_epi64(1, R[w][0], splat(acc[w]));
    // Each lane's bits above 52 move one lane up. A lane is then at most
    // 2^52 + 2^12, so what remains is a carry of one, which may ripple:
    // lanes above the mask generate it and lanes equal to it pass it on.
    __m256i carry[L];
#pragma GCC unroll 8
    for (std::size_t l = 0; l < L; ++l) {
      carry[l] = _mm256_srli_epi64(R[w][l], 52);
      R[w][l] = _mm256_and_si256(R[w][l], mask);
    }
    std::uint32_t gen = 0;
    std::uint32_t prop = 0;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < L; ++l) {
      const __m256i lower = l > 0 ? carry[l - 1] : zero;
      R[w][l] = _mm256_add_epi64(R[w][l],
                                 _mm256_alignr_epi64(carry[l], lower, 3));
      gen |= std::uint32_t{_mm256_cmpgt_epu64_mask(R[w][l], mask)} << (4 * l);
      prop |= std::uint32_t{_mm256_cmpeq_epu64_mask(R[w][l], mask)} << (4 * l);
    }
    // Lanes receiving a carry: adding the generated carries to the
    // propagating lanes flips exactly those bits.
    const std::uint32_t into = ((gen << 1) + prop) ^ prop;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < L; ++l) {
      const auto k = static_cast<__mmask8>((into >> (4 * l)) & 0xF);
      R[w][l] = _mm256_mask_sub_epi64(R[w][l], k, R[w][l], mask);
      R[w][l] = _mm256_and_si256(R[w][l], mask);
      _mm256_store_si256(reinterpret_cast<__m256i*>(out[w].d + 4 * l),
                         R[w][l]);
    }
  }
}

std::size_t exponent_bits(const IfmaPow& op) {
  if (op.e_limbs == 0) return 0;
  const std::uint32_t top = op.e[op.e_limbs - 1];
  return 32 * op.e_limbs - static_cast<std::size_t>(std::countl_zero(top));
}

// Bits pos .. pos + width - 1 of the exponent (width <= 5).
std::uint32_t window_at(const IfmaPow& op, std::size_t pos,
                        std::size_t width) {
  const std::size_t limb = pos / 32;
  std::uint64_t v = limb < op.e_limbs ? op.e[limb] : 0;
  if (limb + 1 < op.e_limbs) v |= std::uint64_t{op.e[limb + 1]} << 32;
  return static_cast<std::uint32_t>(v >> (pos % 32)) & ((1u << width) - 1);
}

// out[w] = base[w]^e[w] mod n[w] for W moduli of k limbs, by fixed windows
// scanned in lockstep: the shorter exponent reads leading zero windows,
// whose multiply by table[0] (one, in Montgomery form) keeps the ways
// together. A window that is zero in every way is skipped.
template <std::size_t W, std::size_t D>
void pow(const IfmaPow* ops, std::size_t k) {
  constexpr std::size_t kMaxWindow = 5;
  Modulus<D> m[W];
  Digits<D> rr[W];
  Digits<D> one[W];
  Digits<D> acc[W];
  std::size_t bits = 0;
  for (std::size_t w = 0; w < W; ++w) {
    to_digits(m[w].n, ops[w].n, k);
    m[w].k0 = ops[w].n0inv & kMask52;
    to_digits(rr[w], ops[w].rr, k);
    to_digits(acc[w], ops[w].base, k);
    one[w] = {};
    one[w].d[0] = 1;
    bits = std::max(bits, exponent_bits(ops[w]));
  }
  if (bits == 0) {
    for (std::size_t w = 0; w < W; ++w) {
      from_digits(ops[w].out, one[w], ops[w].n, k);
    }
    return;
  }

  const std::size_t width = bits > 320 ? 5 : bits > 96 ? 4 : bits > 32 ? 3 : 1;
  Digits<D> table[1u << kMaxWindow][W];  // x^j * R mod n, in [0, 2n)
  amm<W, D>(table[0], one, rr, m);
  amm<W, D>(table[1], acc, rr, m);
  for (std::size_t j = 2; j < (1u << width); ++j) {
    amm<W, D>(table[j], table[j - 1], table[1], m);
  }

  std::size_t pos = (bits - 1) / width * width;  // the top window
  for (std::size_t w = 0; w < W; ++w) {
    acc[w] = table[window_at(ops[w], pos, width)][w];
  }
  while (pos > 0) {
    pos -= width;
    for (std::size_t s = 0; s < width; ++s) amm<W, D>(acc, acc, acc, m);
    Digits<D> entry[W];
    bool any = false;
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint32_t win = window_at(ops[w], pos, width);
      entry[w] = table[win][w];
      any |= win != 0;
    }
    if (any) amm<W, D>(acc, acc, entry, m);
  }

  amm<W, D>(acc, acc, one, m);  // out of Montgomery form: at most n
  for (std::size_t w = 0; w < W; ++w) {
    from_digits(ops[w].out, acc[w], ops[w].n, k);
  }
}

template <std::size_t W, std::size_t D>
void amm_digits(const Amm52* ops) {
  Digits<D> a[W] = {};
  Digits<D> b[W] = {};
  Modulus<D> m[W] = {};
  for (std::size_t w = 0; w < W; ++w) {
    std::copy_n(ops[w].a, D, a[w].d);
    std::copy_n(ops[w].b, D, b[w].d);
    std::copy_n(ops[w].n, D, m[w].n.d);
    m[w].k0 = ops[w].k0;
  }
  amm<W, D>(a, a, b, m);
  for (std::size_t w = 0; w < W; ++w) {
    std::copy_n(a[w].d, D, ops[w].out);
  }
}

}  // namespace

bool ifma_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512ifma") &&
         __builtin_cpu_supports("avx512vl");
}

void ifma_pow8x2(const IfmaPow& p, const IfmaPow& q) {
  const IfmaPow ops[2] = {p, q};
  pow<2, kIfmaPairDigits>(ops, 8);
}

void ifma_pow16(const IfmaPow& op) { pow<1, kIfmaWideDigits>(&op, 16); }

void ifma_mul16(std::uint64_t* out, const std::uint64_t* a,
                const std::uint64_t* b, const std::uint64_t* n,
                std::uint64_t n0inv, const std::uint64_t* rr) {
  Modulus<kIfmaWideDigits> m;
  to_digits(m.n, n, 16);
  m.k0 = n0inv & kMask52;
  Digits<kIfmaWideDigits> x;
  Digits<kIfmaWideDigits> y;
  Digits<kIfmaWideDigits> r;
  to_digits(x, a, 16);
  to_digits(y, b, 16);
  to_digits(r, rr, 16);
  amm<1, kIfmaWideDigits>(&x, &x, &y, &m);  // a * b / R
  amm<1, kIfmaWideDigits>(&x, &x, &r, &m);  // a * b, below 2n
  from_digits(out, x, n, 16);
}

void ifma_amm10x2(const Amm52& x, const Amm52& y) {
  const Amm52 ops[2] = {x, y};
  amm_digits<2, kIfmaPairDigits>(ops);
}

void ifma_amm20(const Amm52& x) { amm_digits<1, kIfmaWideDigits>(&x); }

}  // namespace et::crypto::kernels

#else  // !__x86_64__

namespace et::crypto::kernels {

bool ifma_available() { return false; }
void ifma_pow8x2(const IfmaPow&, const IfmaPow&) { std::abort(); }
void ifma_pow16(const IfmaPow&) { std::abort(); }
void ifma_mul16(std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                const std::uint64_t*, std::uint64_t, const std::uint64_t*) {
  std::abort();
}
void ifma_amm10x2(const Amm52&, const Amm52&) { std::abort(); }
void ifma_amm20(const Amm52&) { std::abort(); }

}  // namespace et::crypto::kernels

#endif  // __x86_64__
