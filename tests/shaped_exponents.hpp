// Seeded multi-exponentiation inputs shared by the multi-exponentiation
// tests: random subgroup bases with exponents of the shapes a digit or
// bucket schedule must handle.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "numeric/group.hpp"
#include "support/rng.hpp"

namespace dmw::num::multiexp_test {

/// One exponent below q of shape `kind`: 0, 1, q-1, sparse (three set bits
/// at most), dense (2^k - 1), or a uniform scalar cut to a random length.
template <GroupBackend G>
typename G::Scalar shaped_exponent(const G& g, unsigned kind,
                                   Xoshiro256ss& rng) {
  const unsigned bits = g.scalar_bits();
  const auto pow2 = [&](unsigned k) { return g.sone() << k; };
  switch (kind) {
    case 0:
      return g.szero();
    case 1:
      return g.sone();
    case 2:
      return g.ssub(g.szero(), g.sone());
    case 3: {
      auto e = g.szero();
      for (int k = 0; k < 3; ++k)
        e = g.sadd(e, pow2(static_cast<unsigned>(rng.below(bits - 1))));
      return e;
    }
    case 4:
      return g.ssub(pow2(1 + static_cast<unsigned>(rng.below(bits - 1))),
                    g.sone());
    default:
      return g.random_scalar(rng) >> static_cast<unsigned>(rng.below(bits));
  }
}

inline constexpr unsigned kExponentShapes = 6;

/// `len` random subgroup bases with shaped exponents: every third product
/// (by the rng) uses one shape throughout, the others mix shapes.
template <GroupBackend G>
std::pair<std::vector<typename G::Elem>, std::vector<typename G::Scalar>>
shaped_product(const G& g, std::size_t len, Xoshiro256ss& rng) {
  std::vector<typename G::Elem> bases;
  std::vector<typename G::Scalar> exps;
  const bool uniform = rng.below(3) == 0;
  const auto fixed_kind = static_cast<unsigned>(rng.below(kExponentShapes));
  for (std::size_t i = 0; i < len; ++i) {
    bases.push_back(g.pow(g.z1(), g.random_nonzero_scalar(rng)));
    const auto kind =
        uniform ? fixed_kind
                : static_cast<unsigned>(rng.below(kExponentShapes));
    exps.push_back(shaped_exponent(g, kind, rng));
  }
  return {std::move(bases), std::move(exps)};
}

/// Product lengths of the differential trials: every length up to 40 (the
/// Straus regime of every protocol call) and 400..450 (around the RLC batch
/// of 3 n sigma = 432 bases, past the Pippenger crossover).
inline std::vector<std::size_t> differential_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t len = 1; len <= 40; ++len) lens.push_back(len);
  for (std::size_t len = 400; len <= 450; ++len) lens.push_back(len);
  return lens;
}

inline void expect_ops(const OpCounts& got, const OpCounts& want,
                       const std::string& label) {
  EXPECT_EQ(got.mul, want.mul) << label;
  EXPECT_EQ(got.pow, want.pow) << label;
  EXPECT_EQ(got.inv, want.inv) << label;
  EXPECT_EQ(got.add, want.add) << label;
}

}  // namespace dmw::num::multiexp_test
