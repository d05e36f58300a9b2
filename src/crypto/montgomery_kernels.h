// Montgomery multiplication kernels behind Montgomery64 (internal).
//
// Montgomery64 picks one kernel per modulus at construction. The kernels
// are declared here, outside its class, so the tests can run them side by
// side on the same inputs. Callers outside src/crypto use Montgomery64.
//
// Every kernel computes out = a * b * R^-1 mod n, fully reduced into
// [0, n), for an odd n of k little-endian 64-bit limbs with a non-zero
// top limb, R = 2^(64k), a, b < n and n0inv = -n^-1 mod 2^64. out may
// alias a or b.
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

}  // namespace et::crypto::kernels
