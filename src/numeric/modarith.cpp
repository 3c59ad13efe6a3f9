#include "numeric/modarith.hpp"

#include "numeric/mont.hpp"

namespace dmw::num {

u64 mod_pow(u64 a, u64 e, u64 m) {
  DMW_REQUIRE(m > 0);
  a %= m;
  // Montgomery fast path (every Group64 modulus lands here): a domain
  // multiplication is three 64x64 multiplies instead of mod_mul's 128/64
  // division, which more than repays the two per-call divisions the
  // context setup spends.
  if ((m & 1) != 0 && m > 1 && m < (u64{1} << 63))
    return pow_mont64(Mont64(m), a, e);
  // Even / out-of-range moduli (never the protocol path): the divmod tier.
  ++op_counts().pow;
  const unsigned bits = exp_bit_length(e);
  const Mod64Ops ops{m};
  if (bits == 0) return ops.one();
  if (bits >= kPow64WindowMinBits) return pow_window(ops, a, e);
  u64 result = a;
  for (unsigned i = bits - 1; i-- > 0;) {
    result = ops.mul(result, result);
    if (exp_bit(e, i)) result = ops.mul(result, a);
  }
  return result;
}

u64 mod_pow_naive(u64 a, u64 e, u64 m) {
  DMW_REQUIRE(m > 0);
  ++op_counts().pow;
  const Mod64Ops ops{m};
  a %= m;
  u64 result = ops.one();
  while (e != 0) {
    if (e & 1) result = ops.mul(result, a);
    a = ops.mul(a, a);
    e >>= 1;
  }
  return result;
}

u64 mod_inv(u64 a, u64 m) {
  DMW_REQUIRE(m > 1);
  ++op_counts().inv;
  // Extended Euclid with signed 128-bit intermediates (coefficients are
  // bounded by m but the update term q*t1 can reach 2m, which would overflow
  // int64 for moduli near 2^63).
  __int128 t0 = 0, t1 = 1;
  u64 r0 = m, r1 = a % m;
  DMW_REQUIRE_MSG(r1 != 0, "mod_inv: zero operand");
  while (r1 != 0) {
    const u64 q = r0 / r1;
    const u64 r2 = r0 % r1;
    const __int128 t2 = t0 - static_cast<__int128>(q) * t1;
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  DMW_CHECK_MSG(r0 == 1, "mod_inv: operand not invertible");
  return t0 >= 0 ? static_cast<u64>(t0)
                 : m - static_cast<u64>(-t0);
}

u64 gcd_u64(u64 a, u64 b) {
  while (b != 0) {
    const u64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace dmw::num
