// Windowed exponentiation engine: the shared machinery behind every fast
// exponentiation path in the repo.
//
// DMW's per-agent cost is dominated by exponentiations in the Schnorr group
// (paper Thm. 12: O(mn^2 log p) modular ops), so the group backends must not
// leave constant factors on the table. This header provides:
//
//   - exponent digit access (bits and w-bit windows) for u64 and BigUInt<W>;
//   - a DomainOps concept: the minimal multiplicative structure the engine
//     needs (identity + multiplication). Both group backends supply
//     Montgomery-domain arithmetic (Mont64 for the u64 tier, Montgomery<W>
//     for BigUInt — each models DomainOps directly), so whole squaring
//     chains run without ever leaving the Montgomery domain; plain divmod
//     arithmetic (Mod64Ops) remains for even or out-of-range moduli;
//   - sliding-window (wNAF-style odd-digit) decomposition of exponents, and
//     pow_window(), the left-to-right sliding-window exponentiation built on
//     it: ~bits squarings + bits/(w+1) table multiplications instead of the
//     textbook bits squarings + bits/2 multiplications.
//
// Window sizes: for a b-bit exponent the odd-power table costs 2^(w-1)
// multiplications and saves bits/2 - bits/(w+1) of them, so the optimum
// grows logarithmically in b; pow_window_bits() encodes the break-even
// points. Fixed-base tables (fixedbase.hpp) and the windowed Straus
// multi-exponentiation (multiexp.hpp) build on the same primitives.
//
// Op-count contract (see opcount.hpp): every multiplication the engine
// performs goes through Ops::mul, which is a counted operation in both
// backends, so fast and naive paths are comparable by their `mul` counters.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <vector>

#include "numeric/biguint.hpp"

namespace dmw::num {

// ---- exponent digit access -------------------------------------------------

inline unsigned exp_bit_length(u64 e) {
  return e == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(e));
}
inline bool exp_bit(u64 e, unsigned i) { return ((e >> i) & 1) != 0; }

template <std::size_t W>
unsigned exp_bit_length(const BigUInt<W>& e) {
  return e.bit_length();
}
template <std::size_t W>
bool exp_bit(const BigUInt<W>& e, unsigned i) {
  return e.bit(i);
}

/// 64 bits of e starting at bit `lo` (zero-padded past the top): the word
/// extraction the window readers below are built on. One or two limb reads
/// instead of a per-bit loop — digit decomposition and Pippenger's window
/// scans read millions of bits per protocol run.
inline u64 exp_word64_at(u64 e, unsigned lo) { return lo >= 64 ? 0 : e >> lo; }
template <std::size_t W>
u64 exp_word64_at(const BigUInt<W>& e, unsigned lo) {
  const unsigned wi = lo / 64;
  const unsigned sh = lo % 64;
  u64 v = wi < W ? e.limb(wi) >> sh : 0;
  if (sh != 0 && wi + 1 < W) v |= e.limb(wi + 1) << (64 - sh);
  return v;
}

/// Value of the bit window [lo, lo + len) of e, len <= 16. Bits beyond the
/// representation read as zero.
template <class S>
unsigned exp_window(const S& e, unsigned lo, unsigned len) {
  return static_cast<unsigned>(exp_word64_at(e, lo) &
                               ((u64{1} << len) - 1));
}

// ---- multiplicative domain -------------------------------------------------

/// The minimal structure the exponentiation engine needs: a multiplicative
/// identity and an associative multiplication, over some element
/// representation `Dom`. Backends choose the representation that makes
/// `mul` cheapest (plain residues for Group64, Montgomery form for
/// GroupBig) and convert at the boundary only.
template <class Ops>
concept DomainOps = requires(const Ops o, const typename Ops::Dom d) {
  typename Ops::Dom;
  { o.one() } -> std::convertible_to<typename Ops::Dom>;
  { o.mul(d, d) } -> std::convertible_to<typename Ops::Dom>;
};

// ---- window-size heuristics ------------------------------------------------

/// Sliding-window width for a single b-bit exponentiation. Break-even:
/// table cost 2^(w-1) muls vs ~b/(w+1) window muls.
constexpr unsigned pow_window_bits(unsigned exp_bits) {
  if (exp_bits <= 8) return 1;
  if (exp_bits <= 24) return 2;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  return 5;
}

/// Window width for interleaved (Straus) multi-exponentiation: the squaring
/// chain is shared, so only the per-base table cost vs per-base window muls
/// trade off — same break-even structure as pow_window_bits.
constexpr unsigned multiexp_window_bits(unsigned exp_bits) {
  return pow_window_bits(exp_bits);
}

// ---- sliding-window decomposition ------------------------------------------

/// Sliding-window decomposition e = sum value_t * 2^{pos_t}, every value odd
/// and < 2^w: calls visit(pos, value) for each digit, ascending pos. Greedy
/// LSB-anchored scan, so consecutive digits start >= w bits apart. Scans 64
/// bits at a time: zero runs skip by whole words and set bits locate via
/// countr_zero. The digit anchored at set bit i is the w bits from i,
/// trimmed to end on a set bit so the value is odd; bits past the top of e
/// read as zero, so the trimmed value is just `word & (2^w - 1)` and its
/// length bit_width(value) (w <= 16 < 64, so `word` covers it).
template <class S, class Visit>
void for_each_window_digit(const S& e, unsigned w, Visit&& visit) {
  const unsigned bits = exp_bit_length(e);
  const u64 mask = (u64{1} << w) - 1;
  unsigned i = 0;
  while (i < bits) {
    const u64 word = exp_word64_at(e, i);
    if (word == 0) {
      i += 64;
      continue;
    }
    const unsigned skip = static_cast<unsigned>(std::countr_zero(word));
    i += skip;
    const auto val = static_cast<unsigned>((word >> skip) & mask);
    visit(i, val);
    i += static_cast<unsigned>(std::bit_width(val));
  }
}

/// Odd-power table base^1, base^3, ..., base^(2^w - 1):
/// 2^(w-1) entries, 2^(w-1) multiplications (one of them the squaring).
template <DomainOps Ops>
std::vector<typename Ops::Dom> odd_power_table(const Ops& ops,
                                               const typename Ops::Dom& base,
                                               unsigned w) {
  std::vector<typename Ops::Dom> table;
  table.reserve(std::size_t(1) << (w - 1));
  table.push_back(base);
  if (w > 1) {
    const auto sq = ops.mul(base, base);
    for (std::size_t j = 1; j < (std::size_t(1) << (w - 1)); ++j)
      table.push_back(ops.mul(table.back(), sq));
  }
  return table;
}

// ---- sliding-window exponentiation -----------------------------------------

/// Largest window pow_window accepts; the odd-power table lives on the
/// stack (2^(max-1) entries), so single exponentiations never touch the
/// heap — at u64 scale an allocation would cost more than the saved
/// multiplications.
inline constexpr unsigned kPowWindowMax = 6;

/// base^e in the domain, left-to-right sliding window (MSB-anchored scan,
/// same odd-digit structure as for_each_window_digit). `window = 0` picks the
/// width from the exponent length.
template <DomainOps Ops, class S>
typename Ops::Dom pow_window(const Ops& ops, const typename Ops::Dom& base,
                             const S& e, unsigned window = 0) {
  const unsigned bits = exp_bit_length(e);
  if (bits == 0) return ops.one();
  const unsigned w = window != 0 ? window : pow_window_bits(bits);
  // Odd powers base^1, base^3, ..., base^(2^w - 1), on the stack.
  std::array<typename Ops::Dom, std::size_t(1) << (kPowWindowMax - 1)> table;
  table[0] = base;
  if (w > 1) {
    const auto sq = ops.mul(base, base);
    for (std::size_t j = 1; j < (std::size_t(1) << (w - 1)); ++j)
      table[j] = ops.mul(table[j - 1], sq);
  }
  typename Ops::Dom acc = ops.one();
  bool started = false;
  unsigned i = bits;
  while (i > 0) {
    const unsigned bit = i - 1;
    if (!exp_bit(e, bit)) {
      if (started) acc = ops.mul(acc, acc);
      --i;
      continue;
    }
    // Window [j, bit] trimmed to end on a set bit, so its value is odd.
    unsigned j = bit + 1 >= w ? bit + 1 - w : 0;
    while (!exp_bit(e, j)) ++j;
    const unsigned len = bit - j + 1;
    const unsigned val = exp_window(e, j, len);
    if (started) {
      for (unsigned k = 0; k < len; ++k) acc = ops.mul(acc, acc);
      acc = ops.mul(acc, table[(val - 1) / 2]);
    } else {
      acc = table[(val - 1) / 2];
      started = true;
    }
    i = j;
  }
  return acc;
}

}  // namespace dmw::num
