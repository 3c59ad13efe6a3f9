// Straus multi-exponentiation and the optimized commitment evaluation:
// equivalence with the naive forms on both backends over the exponent
// shapes the digit schedule must handle, edge cases, and golden OpCounts
// for fixed calls (including one Eq. (12) degree resolution).
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/chacha.hpp"
#include "dmw/polycommit.hpp"
#include "numeric/multiexp.hpp"
#include "poly/lagrange.hpp"
#include "poly/polynomial.hpp"
#include "shaped_exponents.hpp"

namespace dmw::num {
namespace {

using multiexp_test::differential_lengths;
using multiexp_test::expect_ops;
using multiexp_test::shaped_product;

/// Seeded differential trials over every exponent shape: a fresh cache's
/// eval and the dispatching multi_pow against the naive product.
template <GroupBackend G>
void straus_differential(const G& g, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (const std::size_t len : differential_lengths()) {
    const auto [bases, exps] = shaped_product(g, len, rng);
    const auto want = multi_pow_naive<G>(g, bases, exps);
    const MultiExpCache<G> cache(g, bases, g.scalar_bits());
    EXPECT_EQ(cache.eval(exps), want) << "eval len=" << len;
    EXPECT_EQ(multi_pow<G>(g, bases, exps), want) << "multi_pow len=" << len;
  }
}

TEST(MultiExp, MatchesNaiveOnGroup64) {
  straus_differential(Group64::test_group(), 1);
}

TEST(MultiExp, MatchesNaiveOnGroup256) {
  Xoshiro256ss grng(2);
  straus_differential(Group256::generate(96, 64, grng), 3);
}

TEST(MultiExp, EdgeCases) {
  const Group64& g = Group64::test_group();
  // Empty product is the identity.
  EXPECT_EQ(multi_pow<Group64>(g, {}, {}), g.identity());
  // Zero exponents contribute nothing.
  std::vector<Group64::Elem> bases{g.z1(), g.z2()};
  std::vector<Group64::Scalar> exps{0, 0};
  EXPECT_EQ(multi_pow<Group64>(g, bases, exps), g.identity());
  // Single term degenerates to pow.
  exps = {12345, 0};
  EXPECT_EQ(multi_pow<Group64>(g, bases, exps), g.pow(g.z1(), 12345));
  // Mismatched sizes rejected.
  std::vector<Group64::Scalar> short_exps{1};
  EXPECT_THROW(multi_pow<Group64>(g, bases, short_exps), CheckError);
}

TEST(MultiExp, ScalarBitHelpers) {
  const Group64& g = Group64::test_group();
  EXPECT_EQ(scalar_bit_length(g, Group64::Scalar{0}), 0u);
  EXPECT_EQ(scalar_bit_length(g, Group64::Scalar{1}), 1u);
  EXPECT_EQ(scalar_bit_length(g, Group64::Scalar{0xff}), 8u);
  EXPECT_TRUE(scalar_bit(g, Group64::Scalar{4}, 2));
  EXPECT_FALSE(scalar_bit(g, Group64::Scalar{4}, 1));
}

TEST(CommitmentEval, OptimizedMatchesNaive) {
  const Group64& g = Group64::test_group();
  const auto params = proto::PublicParams<Group64>::make(g, 8, 1, 2, 5);
  auto rng = crypto::ChaChaRng::from_seed(6);
  const auto polys = proto::BidPolynomials<Group64>::sample(params, 3, rng);
  const auto commitments =
      proto::CommitmentVectors<Group64>::commit(params, polys);
  for (std::size_t k = 0; k < params.n(); ++k) {
    const auto alpha = params.pseudonym(k);
    EXPECT_EQ(proto::commitment_eval<Group64>(g, commitments.Q, alpha),
              proto::commitment_eval_naive<Group64>(g, commitments.Q, alpha));
    EXPECT_EQ(proto::commitment_eval<Group64>(g, commitments.R, alpha),
              proto::commitment_eval_naive<Group64>(g, commitments.R, alpha));
    EXPECT_EQ(proto::commitment_eval<Group64>(g, commitments.O, alpha),
              proto::commitment_eval_naive<Group64>(g, commitments.O, alpha));
  }
}

TEST(CommitmentEval, FewerOpsThanNaive) {
  const Group64& g = Group64::test_group();
  const auto params = proto::PublicParams<Group64>::make(g, 16, 1, 3, 7);
  auto rng = crypto::ChaChaRng::from_seed(8);
  const auto polys = proto::BidPolynomials<Group64>::sample(params, 3, rng);
  const auto commitments =
      proto::CommitmentVectors<Group64>::commit(params, polys);
  const auto alpha = params.pseudonym(5);

  OpCountScope fast_scope;
  (void)proto::commitment_eval<Group64>(g, commitments.Q, alpha);
  const auto fast = fast_scope.delta();

  OpCountScope naive_scope;
  (void)proto::commitment_eval_naive<Group64>(g, commitments.Q, alpha);
  const auto naive = naive_scope.delta();

  // Under the opcount.hpp contract `mul` includes every multiplication the
  // exponentiations perform, so the two paths compare directly: the shared
  // squaring chain should save well over half the modular multiplications.
  EXPECT_LT(fast.mul * 2, naive.mul);
}

// ---- golden op counts -------------------------------------------------------
//
// Recorded on the counting-sorted digit schedule: the sort-free schedule
// may reorder multiplications within a bit position, never add or drop one.

/// The cache build, eval and dispatching multi_pow on seeded products.
template <GroupBackend G>
void expect_golden_straus(const G& g, std::uint64_t seed,
                          const std::vector<std::size_t>& lens,
                          const std::vector<OpCounts>& want) {
  ASSERT_EQ(lens.size() * 3, want.size());
  Xoshiro256ss rng(seed);
  for (std::size_t k = 0; k < lens.size(); ++k) {
    const auto [bases, exps] = shaped_product(g, lens[k], rng);
    const std::string label = "len=" + std::to_string(lens[k]);
    OpCountScope build;
    const MultiExpCache<G> cache(g, bases, g.scalar_bits());
    expect_ops(build.delta(), want[3 * k], label + " build");
    OpCountScope eval;
    (void)cache.eval(exps);
    expect_ops(eval.delta(), want[3 * k + 1], label + " eval");
    OpCountScope dispatch;
    (void)multi_pow<G>(g, bases, exps);
    expect_ops(dispatch.delta(), want[3 * k + 2], label + " multi_pow");
  }
}

TEST(MultiExpSchedule, GoldenOpCountsGroup64) {
  expect_golden_straus(Group64::test_group(), 41, {1, 5, 12, 40, 300},
                       {
                           {5, 0, 0, 0}, {13, 0, 0, 0}, {17, 0, 0, 0},
                           {25, 0, 0, 0}, {6, 0, 0, 0}, {10, 0, 0, 0},
                           {60, 0, 0, 0}, {133, 0, 0, 0}, {193, 0, 0, 0},
                           {200, 0, 0, 0}, {200, 0, 0, 0}, {400, 0, 0, 0},
                           {1500, 0, 0, 0}, {1458, 0, 0, 0}, {1627, 0, 0, 0},
                       });
}

TEST(MultiExpSchedule, GoldenOpCountsGroup256) {
  Xoshiro256ss grng(2);
  expect_golden_straus(Group256::generate(96, 64, grng), 42, {3, 12, 40},
                       {
                           {15, 0, 0, 0}, {0, 0, 0, 0}, {3, 0, 0, 0},
                           {60, 0, 0, 0}, {147, 0, 0, 0}, {207, 0, 0, 0},
                           {200, 0, 0, 0}, {343, 0, 0, 0}, {543, 0, 0, 0},
                       });
}

TEST(MultiExpSchedule, ResolveDegreeInExponentAtTwelvePoints) {
  // Paper Eq. (12) at n = 12: one multi-exponentiation per prefix probe.
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(43);
  const auto p = poly::Polynomial<Group64>::random_zero_const(g, 9, rng);
  std::vector<Group64::Scalar> points;
  while (points.size() < 12) {
    const auto x = g.random_nonzero_scalar(rng);
    if (std::find(points.begin(), points.end(), x) == points.end())
      points.push_back(x);
  }
  std::vector<Group64::Elem> lambdas;
  for (const auto& x : points) lambdas.push_back(g.pow(g.z1(), p.eval(g, x)));
  OpCountScope scope;
  const auto res = poly::resolve_degree_in_exponent(g, points, lambdas);
  const OpCounts ops = scope.delta();
  ASSERT_TRUE(res.degree.has_value());
  EXPECT_EQ(*res.degree, 9u);
  EXPECT_EQ(res.probes, 10u);
  expect_ops(ops, {1458, 0, 9, 45}, "resolve_degree_in_exponent n=12");
}

}  // namespace
}  // namespace dmw::num
