#include "src/crypto/bigint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "src/crypto/montgomery_kernels.h"

namespace et::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

BigInt BigInt::from_bytes(BytesView b) {
  BigInt out;
  out.limbs_.assign((b.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    // b[0] is the most significant byte.
    const std::size_t bit_pos = (b.size() - 1 - i);
    out.limbs_[bit_pos / 4] |= static_cast<std::uint32_t>(b[i])
                               << (8 * (bit_pos % 4));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes(std::size_t min_len) const {
  const std::size_t bits = bit_length();
  const std::size_t len = std::max(min_len, (bits + 7) / 8);
  Bytes out(len, 0);
  for (std::size_t i = 0; i < len && i < limbs_.size() * 4; ++i) {
    const std::uint32_t limb = limbs_[i / 4];
    out[len - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

BigInt BigInt::parse(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt::parse: empty");
  BigInt out;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    for (char c : text.substr(2)) {
      int nib;
      if (c >= '0' && c <= '9') nib = c - '0';
      else if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') nib = c - 'A' + 10;
      else throw std::invalid_argument("BigInt::parse: bad hex digit");
      out = (out << 4) + BigInt(static_cast<std::uint64_t>(nib));
    }
  } else {
    const BigInt ten(10);
    for (char c : text) {
      if (c < '0' || c > '9') {
        throw std::invalid_argument("BigInt::parse: bad decimal digit");
      }
      out = out * ten + BigInt(static_cast<std::uint64_t>(c - '0'));
    }
  }
  return out;
}

BigInt BigInt::random_bits(Rng& rng, std::size_t bits) {
  BigInt out;
  const std::size_t limbs = (bits + 31) / 32;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) l = rng.next_u32();
  const std::size_t extra = limbs * 32 - bits;
  if (extra && limbs) {
    out.limbs_.back() &= (0xFFFFFFFFu >> extra);
  }
  out.trim();
  return out;
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  if (bound.is_zero()) {
    throw std::domain_error("random_below: zero bound");
  }
  const std::size_t bits = bound.bit_length();
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const std::uint32_t top = limbs_.back();
  return (limbs_.size() - 1) * 32 +
         (32 - static_cast<std::size_t>(std::countl_zero(top)));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::uint64_t BigInt::to_u64() const {
  if (limbs_.size() > 2) throw std::overflow_error("BigInt::to_u64: too large");
  std::uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::add_impl(const BigInt& a, const BigInt& b) {
  BigInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigInt BigInt::sub_impl(const BigInt& a, const BigInt& b) {
  if (a < b) throw std::underflow_error("BigInt subtraction underflow");
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) d -= b.limbs_[i];
    if (d < 0) {
      d += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(d);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const { return add_impl(*this, rhs); }
BigInt BigInt::operator-(const BigInt& rhs) const { return sub_impl(*this, rhs); }

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out.limbs_[i + j]) + ai * rhs.limbs_[j] +
          carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry) {
      const std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt{}, *this};

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigInt q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), BigInt(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  const std::size_t shift =
      static_cast<std::size_t>(std::countl_zero(divisor.limbs_.back()));
  const BigInt u = *this << shift;
  const BigInt v = divisor << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // u has m+n+1 digits after normalization
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two digits of the current remainder.
    const std::uint64_t top =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = top / vn[n - 1];
    std::uint64_t rhat = top % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract qhat*v from u[j..j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             static_cast<std::int64_t>(p & 0xFFFFFFFFu) -
                             borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add v back.
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + carry2;
        un[i + j] = static_cast<std::uint32_t>(s);
        carry2 = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + carry2);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigInt r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  return {std::move(q), r >> shift};
}

BigInt BigInt::operator/(const BigInt& rhs) const { return divmod(rhs).quotient; }
BigInt BigInt::operator%(const BigInt& rhs) const { return divmod(rhs).remainder; }

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt v = *this;
  const BigInt billion(1000000000ULL);
  std::vector<std::uint32_t> chunks;
  while (!v.is_zero()) {
    auto [q, r] = v.divmod(billion);
    chunks.push_back(r.is_zero() ? 0u : r.limbs_[0]);
    v = std::move(q);
  }
  out = std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out += std::string(9 - part.size(), '0') + part;
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  const Bytes b = to_bytes();
  std::string hex = hex_encode(b);
  // Strip the possible leading zero nibble.
  if (hex.size() > 1 && hex[0] == '0') hex.erase(0, 1);
  return hex;
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {
__extension__ typedef unsigned __int128 u128;

// -n^{-1} mod 2^64 by Newton iteration (n odd): each step doubles the
// number of correct low bits, from the 3 an odd n0 gives for free.
std::uint64_t mont_n0inv(std::uint64_t n0) {
  std::uint64_t x = n0;
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  return 0 - x;
}

// Low limb of a * b + x + carry; carry becomes the high limb. The sum is
// at most 2^128 - 1, so nothing is lost. The two additions are written
// with 64-bit carries because GCC compiles them into a tighter loop than
// 128-bit additions.
inline std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t x,
                         std::uint64_t& carry) {
  const u128 p = static_cast<u128>(a) * b;
  std::uint64_t lo = static_cast<std::uint64_t>(p);
  std::uint64_t hi = static_cast<std::uint64_t>(p >> 64);
  lo += x;
  hi += lo < x;
  lo += carry;
  hi += lo < carry;
  carry = hi;
  return lo;
}

// out = (t + top * R) mod n for a k-limb t with t + top * R < 2n: one
// conditional subtraction lands in [0, n).
void reduce_once(std::uint64_t* out, std::uint64_t* t, std::uint64_t top,
                 const std::uint64_t* n, std::size_t k) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;  // t == n reduces to zero
    for (std::size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t d = t[j] - n[j] - borrow;
      borrow = (t[j] < n[j]) || (t[j] - n[j] < borrow);
      t[j] = d;
    }
  }
  std::copy_n(t, k, out);
}
}  // namespace

void kernels::mont_mul_portable(std::uint64_t* out, const std::uint64_t* a,
                                const std::uint64_t* b,
                                const std::uint64_t* n, std::uint64_t n0inv,
                                std::size_t k) {
  // CIOS (coarsely integrated operand scanning) with the multiply and
  // reduce steps fused into one pass per limb of a:
  // t = (t + a_i * b + m * n) / 2^64, with m chosen to zero the low limb.
  // t stays below 2n throughout.
  std::uint64_t t[Montgomery64::kMaxLimbs + 1];
  std::fill_n(t, k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t ai = a[i];
    std::uint64_t carry_ab = 0;
    std::uint64_t carry_mn = 0;
    const std::uint64_t low = mac(ai, b[0], t[0], carry_ab);
    const std::uint64_t m = low * n0inv;
    (void)mac(m, n[0], low, carry_mn);  // zero by the choice of m
    for (std::size_t j = 1; j < k; ++j) {
      const std::uint64_t x = mac(ai, b[j], t[j], carry_ab);
      t[j - 1] = mac(m, n[j], x, carry_mn);
    }
    std::uint64_t top = t[k] + carry_ab;
    std::uint64_t over = top < carry_ab;
    top += carry_mn;
    over += top < carry_mn;
    t[k - 1] = top;
    t[k] = over;
  }
  reduce_once(out, t, t[k], n, k);
}

bool Montgomery64::supports(const BigInt& modulus) {
  return modulus.is_odd() && modulus.bit_length() >= 2 &&
         modulus.bit_length() <= kMaxBits;
}

void BigInt::to_words(std::uint64_t* out, std::size_t k) const {
  std::fill_n(out, k, 0);
  for (std::size_t i = 0; i < limbs_.size() && i < 2 * k; ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs_[i]) << (32 * (i % 2));
  }
}

BigInt BigInt::from_words(const std::uint64_t* x, std::size_t k) {
  BigInt out;
  out.limbs_.resize(2 * k);
  for (std::size_t i = 0; i < 2 * k; ++i) {
    out.limbs_[i] = static_cast<std::uint32_t>(x[i / 2] >> (32 * (i % 2)));
  }
  out.trim();
  return out;
}

Montgomery64::Montgomery64(const BigInt& modulus) {
  if (!supports(modulus)) {
    throw std::domain_error(
        "Montgomery64: modulus must be odd, > 1 and at most 2048 bits");
  }
  k_ = (modulus.limbs_.size() + 1) / 2;
  modulus.to_words(n_.data(), k_);
  n0inv_ = mont_n0inv(n_[0]);
  std::size_t r_bits = 64 * k_;
  if (k_ == 16 && kernels::ifma_available()) {
    kernel_ = Kernel::kIfma16;
    r_bits = 52 * kernels::kIfmaWideDigits;
  } else if (k_ == 8 && kernels::mont_mul8_available()) {
    kernel_ = Kernel::kMulx8;
  }
  load(r2_, (BigInt(1) << (2 * r_bits)) % modulus);
}

void Montgomery64::load(Limbs& out, const BigInt& x) const {
  // Any x of more than 2k 32-bit limbs is >= 2^(64k) > n; otherwise compare
  // limbs.
  bool reduce = x.limbs_.size() > 2 * k_;
  if (!reduce) {
    x.to_words(out.data(), k_);
    reduce = true;  // x == n reduces to zero
    for (std::size_t j = k_; j-- > 0;) {
      if (out[j] != n_[j]) {
        reduce = out[j] > n_[j];
        break;
      }
    }
  }
  if (reduce) load(out, x % store(n_));
}

BigInt Montgomery64::store(const Limbs& x) const {
  return BigInt::from_words(x.data(), k_);
}

void Montgomery64::mont_mul(Limbs& out, const Limbs& a,
                            const Limbs& b) const {
  if (kernel_ == Kernel::kMulx8) {
    kernels::mont_mul8(out.data(), a.data(), b.data(), n_.data(), n0inv_);
  } else {
    kernels::mont_mul_portable(out.data(), a.data(), b.data(), n_.data(),
                               n0inv_, k_);
  }
}

void Montgomery64::mont_sqr(Limbs& out, const Limbs& a) const {
  if (kernel_ == Kernel::kMulx8) {
    kernels::mont_mul8(out.data(), a.data(), a.data(), n_.data(), n0inv_);
    return;
  }
  // Square, then reduce (separated operand scanning): the k(k-1)/2 cross
  // products a_i * a_j (i < j) are formed once and doubled, which saves
  // about a fifth of the word products. Measured in place, a squaring runs
  // 5-12 % faster than mont_mul(a, a, a) at 8 limbs and 15-22 % at 16.
  const std::size_t k = k_;
  std::uint64_t t[2 * kMaxLimbs];
  std::fill_n(t, 2 * k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = i + 1; j < k; ++j) {
      t[i + j] = mac(a[i], a[j], t[i + j], carry);
    }
    t[i + k] = carry;
  }
  std::uint64_t shifted_out = 0;
  for (std::size_t j = 0; j < 2 * k; ++j) {
    const std::uint64_t v = t[j];
    t[j] = (v << 1) | shifted_out;
    shifted_out = v >> 63;
  }
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    t[2 * i] = mac(a[i], a[i], t[2 * i], carry);
    t[2 * i + 1] += carry;
    carry = t[2 * i + 1] < carry;
  }
  redc(out, t);
}

void Montgomery64::redc(Limbs& out, std::uint64_t* t) const {
  // Add m_i * n * 2^(64i) to clear limb i, for each i < k; what is left is
  // t / R, in the top k limbs plus a carry bit.
  const std::size_t k = k_;
  const std::uint64_t* n = n_.data();
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t m = t[i] * n0inv_;
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      t[i + j] = mac(m, n[j], t[i + j], carry);
    }
    const std::uint64_t sum = t[i + k] + carry;
    std::uint64_t over = sum < carry;
    t[i + k] = sum + top;
    over += t[i + k] < top;
    top = over;
  }
  reduce_once(out.data(), t + k, top, n, k);
}

BigInt Montgomery64::mul(const BigInt& a, const BigInt& b) const {
  Limbs x{};
  Limbs y{};
  load(x, a);
  load(y, b);
  if (kernel_ == Kernel::kIfma16) {
    kernels::ifma_mul16(x.data(), x.data(), y.data(), n_.data(), n0inv_,
                        r2_.data());
    return store(x);
  }
  mont_mul(x, x, r2_);  // a*R
  mont_mul(x, x, y);    // a*R * b * R^-1 = a*b
  return store(x);
}

BigInt Montgomery64::pow(const BigInt& base, const BigInt& exponent) const {
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return BigInt(1);  // n > 1
  if (kernel_ == Kernel::kIfma16) {
    Limbs x{};
    load(x, base);
    kernels::ifma_pow16({x.data(), x.data(), exponent.limbs_.data(),
                         exponent.limbs_.size(), n_.data(), r2_.data(),
                         n0inv_});
    return store(x);
  }

  // Odd powers b^1, b^3, ..., b^(2^w - 1) in Montgomery form.
  const std::size_t w = bits > 512 ? 5 : bits > 128 ? 4 : bits > 32 ? 3 : 1;
  Limbs table[1u << 4];  // entries past 2^(w-1) stay unused
  load(table[0], base);
  mont_mul(table[0], table[0], r2_);
  if (w > 1) {
    Limbs square{};
    mont_sqr(square, table[0]);
    for (std::size_t i = 1; i < (1u << (w - 1)); ++i) {
      mont_mul(table[i], table[i - 1], square);
    }
  }

  // Scan from the top bit: a zero bit squares; a one bit opens a window of
  // at most w bits that ends in a one, applied as |window| squarings and
  // one table multiply. The top bit is set, so the first step opens a
  // window and seeds the accumulator.
  Limbs acc{};
  bool seeded = false;
  for (std::size_t i = bits; i > 0;) {
    if (!exponent.bit(i - 1)) {
      mont_sqr(acc, acc);
      --i;
      continue;
    }
    std::size_t lo = i > w ? i - w : 0;
    while (!exponent.bit(lo)) ++lo;
    std::size_t window = 0;
    for (std::size_t j = i; j-- > lo;) {
      window = (window << 1) | (exponent.bit(j) ? 1u : 0u);
    }
    const Limbs& entry = table[window >> 1];
    if (seeded) {
      for (std::size_t j = lo; j < i; ++j) mont_sqr(acc, acc);
      mont_mul(acc, acc, entry);
    } else {
      std::copy_n(entry.begin(), k_, acc.begin());
      seeded = true;
    }
    i = lo;
  }

  std::uint64_t t[2 * kMaxLimbs];  // out of Montgomery form: acc / R
  std::copy_n(acc.begin(), k_, t);
  std::fill_n(t + k_, k_, 0);
  redc(acc, t);
  return store(acc);
}

MontgomeryPair::MontgomeryPair(const BigInt& p, const BigInt& q) {
  const auto fits = [](const BigInt& n) {  // odd, 449 to 512 bits
    return n.is_odd() && (n.limbs_.size() + 1) / 2 == 8;
  };
  if (!fits(p) || !fits(q) || !kernels::ifma_available()) {
    separate_ = std::make_unique<const std::array<Montgomery64, 2>>(
        std::array<Montgomery64, 2>{Montgomery64(p), Montgomery64(q)});
    return;
  }
  halves_[0].modulus = p;
  halves_[1].modulus = q;
  for (Half& half : halves_) {
    half.n0inv = mont_n0inv(half.modulus.limbs_[0] |
                            std::uint64_t{half.modulus.limbs_[1]} << 32);
    ((BigInt(1) << (2 * 52 * kernels::kIfmaPairDigits)) % half.modulus)
        .to_words(half.rr.data(), 8);
  }
}

std::array<BigInt, 2> MontgomeryPair::pow(const BigInt& base,
                                          const BigInt& ep,
                                          const BigInt& eq) const {
  if (separate_) {
    return {(*separate_)[0].pow(base, ep), (*separate_)[1].pow(base, eq)};
  }
  const BigInt* exponents[2] = {&ep, &eq};
  std::array<std::uint64_t, 8> x[2];
  std::array<std::uint64_t, 8> n[2];
  kernels::IfmaPow ops[2];
  for (std::size_t h = 0; h < 2; ++h) {
    const Half& half = halves_[h];
    half.modulus.to_words(n[h].data(), 8);
    (base % half.modulus).to_words(x[h].data(), 8);
    ops[h] = {x[h].data(), x[h].data(), exponents[h]->limbs_.data(),
              exponents[h]->limbs_.size(), n[h].data(), half.rr.data(),
              half.n0inv};
  }
  kernels::ifma_pow8x2(ops[0], ops[1]);
  return {BigInt::from_words(x[0].data(), 8),
          BigInt::from_words(x[1].data(), 8)};
}

BigInt BigInt::mod_exp(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus.bit_length() < 2) {
    if (modulus.is_zero()) throw std::domain_error("mod_exp: zero modulus");
    return {};  // mod 1
  }
  if (Montgomery64::supports(modulus)) {
    return Montgomery64(modulus).pow(*this, exponent);
  }
  // Classical square-and-multiply with divmod reduction: even moduli (the
  // tests' reference) and odd moduli wider than Montgomery64's capacity.
  BigInt base = *this % modulus;
  BigInt acc(1);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    acc = (acc * acc) % modulus;
    if (exponent.bit(i)) acc = (acc * base) % modulus;
  }
  return acc;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& modulus) const {
  // Extended Euclid tracking only the coefficient of *this, with signs
  // handled via a parity flag (all values stay non-negative).
  if (modulus.bit_length() < 2) {
    throw std::domain_error("mod_inverse: modulus must be > 1");
  }
  BigInt r0 = modulus;
  BigInt r1 = *this % modulus;
  BigInt t0;          // coefficient magnitudes
  BigInt t1(1);
  bool neg0 = false;  // sign of t0 / t1
  bool neg1 = false;

  while (!r1.is_zero()) {
    auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q*t1  (signed)
    const BigInt qt = q * t1;
    BigInt t2;
    bool neg2;
    if (neg0 == neg1) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        neg2 = neg0;
      } else {
        t2 = qt - t0;
        neg2 = !neg0;
      }
    } else {
      t2 = t0 + qt;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    neg0 = neg1;
    t1 = std::move(t2);
    neg1 = neg2;
  }
  if (!(r0 == BigInt(1))) {
    throw std::domain_error("mod_inverse: values are not coprime");
  }
  if (neg0 && !t0.is_zero()) return modulus - (t0 % modulus);
  return t0 % modulus;
}

bool BigInt::is_probable_prime(Rng& rng, int rounds) const {
  if (bit_length() < 2) return false;       // 0, 1
  if (*this == BigInt(2) || *this == BigInt(3)) return true;
  if (!is_odd()) return false;

  // Trial division by small primes.
  static constexpr std::uint32_t kSmallPrimes[] = {
      3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,  59,
      61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131};
  for (std::uint32_t p : kSmallPrimes) {
    const BigInt bp(p);
    if (*this == bp) return true;
    if ((*this % bp).is_zero()) return false;
  }

  // n-1 = d * 2^s
  const BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    // a in [2, n-2]
    const BigInt a = two + BigInt::random_below(rng, n_minus_1 - two);
    BigInt x = a.mod_exp(d, *this);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = (x * x) % *this;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(Rng& rng, std::size_t bits, int mr_rounds) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits too small");
  // About one odd candidate in 0.35 * bits is prime, so 64 * bits misses
  // in a row have odds of about e^-184 (below 2^-260) at any size.
  for (std::size_t tries = 0; tries < 64 * bits; ++tries) {
    BigInt candidate = random_bits(rng, bits);
    // Force exact bit length (top two bits set) and oddness.
    candidate.limbs_.resize((bits + 31) / 32, 0);
    const std::size_t top_bit = (bits - 1) % 32;
    candidate.limbs_.back() |= 1u << top_bit;
    if (bits >= 2) {
      const std::size_t second = (bits - 2) % 32;
      candidate.limbs_[(bits - 2) / 32] |= 1u << second;
    }
    candidate.limbs_[0] |= 1u;
    candidate.trim();
    if (candidate.is_probable_prime(rng, mr_rounds)) return candidate;
  }
  throw std::runtime_error(
      "generate_prime: no prime among the candidates; the modular "
      "arithmetic is miscomputing");
}

}  // namespace et::crypto
