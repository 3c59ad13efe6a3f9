// Pippenger (bucket-method) multi-exponentiation.
//
// The windowed Straus interleaving (multiexp.hpp) pays a per-base odd-power
// table plus ~bits/(w+1) table multiplications per base; its cost is linear
// in the base count with a large constant. The bucket method instead scans
// the exponents c bits at a time: within one round every base whose current
// digit is d lands in bucket d with a single multiplication, and the round
// total  sum_d d * bucket_d  is recovered with ~2 * 2^c more via the
// running-suffix-product trick. Per base the whole evaluation costs about
// one multiplication per round — asymptotically bits/log(len) — so beyond a
// crossover length (a few hundred bases at protocol scalar sizes) Pippenger
// wins, and RLC batch verification (dmw/batchverify.hpp) is exactly the
// producer of such long products.
//
// multi_pow_prefers_pippenger() compares the two closed-form cost models so
// the dispatching multi_pow (multiexp.hpp) can pick per call; the models are
// in counted domain multiplications, matching the op-count contract
// (opcount.hpp) both engines honour — every multiplication either performs
// goes through a counted backend op. bench_multiexp measures the real
// crossover against the models.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include "numeric/groupdom.hpp"

namespace dmw::num {

// ---- cost models -----------------------------------------------------------

/// Largest bucket window the cost scan considers: 2^12 buckets is already
/// past the optimum for any product the protocol can produce.
inline constexpr unsigned kPippengerWindowMax = 12;

/// Estimated domain multiplications for the bucket method on `len` bases of
/// `bits`-bit exponents with a c-bit window: per round one bucket
/// multiplication per base with a nonzero digit (fraction 1 - 2^-c) plus
/// ~2 per live bucket for the suffix-product recovery, plus the shared
/// squaring chain (one squaring per exponent bit overall) and one
/// domain conversion per base.
inline double pippenger_cost_estimate(std::size_t len, unsigned bits,
                                      unsigned c) {
  const double rounds = std::ceil(static_cast<double>(bits) / c);
  const double adds =
      static_cast<double>(len) * (1.0 - std::ldexp(1.0, -static_cast<int>(c)));
  const double live = std::min<double>(static_cast<double>(len),
                                       std::ldexp(1.0, static_cast<int>(c)));
  return rounds * (adds + 2.0 * live) + static_cast<double>(bits) +
         static_cast<double>(len);
}

/// Bucket window minimizing the model above. The scan is additionally
/// capped so the bucket count stays <= ~2x the base count: the mul-count
/// model cannot see the 2^c-slot recovery walk each round performs, and an
/// oversized window (mostly-empty buckets) makes that uncounted scan
/// dominate on the cheap-mul Group64 tier. The cap is what puts the real
/// dispatch crossover at a few hundred bases instead of "always buckets".
inline unsigned pippenger_window_bits(std::size_t len, unsigned bits) {
  const unsigned cap = std::min(
      kPippengerWindowMax,
      std::max(1u, static_cast<unsigned>(std::bit_width(len))));
  unsigned best = 1;
  double best_cost = pippenger_cost_estimate(len, bits, 1);
  for (unsigned c = 2; c <= cap; ++c) {
    const double cost = pippenger_cost_estimate(len, bits, c);
    if (cost < best_cost) {
      best = c;
      best_cost = cost;
    }
  }
  return best;
}

/// Estimated domain multiplications for windowed Straus (multiexp.hpp):
/// per base one odd-power table (2^(w-1) muls + one conversion) and
/// ~bits/(w+1) window muls, plus the shared squaring chain.
inline double straus_cost_estimate(std::size_t len, unsigned bits) {
  const unsigned w = multiexp_window_bits(bits == 0 ? 1 : bits);
  const double per_base = std::ldexp(1.0, static_cast<int>(w) - 1) + 1.0 +
                          static_cast<double>(bits) / (w + 1);
  return static_cast<double>(len) * per_base + static_cast<double>(bits);
}

/// Dispatch predicate for multi_pow: true when the bucket method models
/// cheaper than Straus for this shape.
inline bool multi_pow_prefers_pippenger(std::size_t len, unsigned bits) {
  if (len < 2 || bits == 0) return false;
  const unsigned c = pippenger_window_bits(len, bits);
  return pippenger_cost_estimate(len, bits, c) < straus_cost_estimate(len, bits);
}

// ---- the bucket method -----------------------------------------------------

/// prod_j bases[j]^{exponents[j]} via fixed c-bit windows and bucket
/// accumulation. `window = 0` picks the width from the cost model. Exact for
/// any exponents (no probabilistic structure); used directly by bench/tests
/// and through the dispatching multi_pow for long products.
template <GroupBackend G>
typename G::Elem multi_pow_pippenger(
    const G& g, std::span<const typename G::Elem> bases,
    std::span<const typename G::Scalar> exponents, unsigned window = 0) {
  DMW_REQUIRE(bases.size() == exponents.size());
  if (bases.empty()) return g.identity();
  const GroupDomOps<G> ops{&g};
  unsigned max_bits = 0;
  for (const auto& e : exponents)
    max_bits = std::max(max_bits, scalar_bit_length(g, e));
  if (max_bits == 0) return g.identity();
  const unsigned c =
      window != 0 ? window : pippenger_window_bits(bases.size(), max_bits);
  DMW_REQUIRE(c >= 1 && c <= kPippengerWindowMax);

  // Bases enter the multiplicative domain once, up front — lane-grouped
  // when the group's SimdMode engages (independent conversions, identical
  // values and OpCounts either way).
  std::vector<typename G::Dom> dom(bases.size());
  if (lanes_profitable(g, bases.size())) {
    make_lane_engine(g).to_mont_lanes(bases.data(), dom.data(), bases.size());
  } else {
    for (std::size_t j = 0; j < bases.size(); ++j) dom[j] = g.to_dom(bases[j]);
  }

  // Buckets for digit values 1..2^c-1; a presence mask avoids spending
  // identity multiplications on empty buckets. The accumulation is one
  // scalar loop: each multiplication depends on its bucket's previous
  // value, and gathering independent ones into lane groups cost more in
  // bookkeeping than the kernels saved.
  const std::size_t bucket_count = (std::size_t(1) << c) - 1;
  std::vector<typename G::Dom> bucket(bucket_count);
  std::vector<char> filled(bucket_count, 0);

  const unsigned rounds = (max_bits + c - 1) / c;
  typename G::Dom acc{};
  bool acc_started = false;
  for (unsigned r = rounds; r-- > 0;) {
    if (acc_started) {
      for (unsigned s = 0; s < c; ++s) acc = ops.mul(acc, acc);
    }
    std::fill(filled.begin(), filled.end(), 0);
    for (std::size_t j = 0; j < dom.size(); ++j) {
      const unsigned d = exp_window(exponents[j], r * c, c);
      if (d == 0) continue;
      if (filled[d - 1]) {
        bucket[d - 1] = ops.mul(bucket[d - 1], dom[j]);
      } else {
        bucket[d - 1] = dom[j];
        filled[d - 1] = 1;
      }
    }
    // sum_d d * bucket_d by suffix products: scanning d downward, `running`
    // holds prod_{d' >= d} bucket_{d'} and is folded into `sum` once per
    // level, so bucket_d ends up counted exactly d times.
    typename G::Dom running{};
    bool running_started = false;
    typename G::Dom sum{};
    bool sum_started = false;
    for (std::size_t d = bucket_count; d-- > 0;) {
      if (filled[d]) {
        running = running_started ? ops.mul(running, bucket[d]) : bucket[d];
        running_started = true;
      }
      if (running_started) {
        sum = sum_started ? ops.mul(sum, running) : running;
        sum_started = true;
      }
    }
    if (sum_started) {
      acc = acc_started ? ops.mul(acc, sum) : sum;
      acc_started = true;
    }
  }
  return acc_started ? g.from_dom(acc) : g.identity();
}

}  // namespace dmw::num
