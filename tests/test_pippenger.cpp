// Pippenger bucket multi-exponentiation: equivalence with the naive product
// on both backends, window/crossover cost models, and the dispatching
// multi_pow picking the bucket method past the crossover.
#include <gtest/gtest.h>

#include "numeric/multiexp.hpp"
#include "numeric/pippenger.hpp"
#include "shaped_exponents.hpp"

namespace dmw::num {
namespace {

std::pair<std::vector<Group64::Elem>, std::vector<Group64::Scalar>>
random_product64(const Group64& g, std::size_t len, Xoshiro256ss& rng) {
  std::vector<Group64::Elem> bases;
  std::vector<Group64::Scalar> exps;
  for (std::size_t i = 0; i < len; ++i) {
    bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
    exps.push_back(g.random_scalar(rng));
  }
  return {std::move(bases), std::move(exps)};
}

template <GroupBackend G>
void pippenger_differential(const G& g, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (const std::size_t len : multiexp_test::differential_lengths()) {
    const auto [bases, exps] = multiexp_test::shaped_product(g, len, rng);
    EXPECT_EQ(multi_pow_pippenger<G>(g, bases, exps),
              multi_pow_naive<G>(g, bases, exps))
        << "len=" << len;
  }
}

TEST(Pippenger, MatchesNaiveOnGroup64) {
  pippenger_differential(Group64::test_group(), 11);
}

TEST(Pippenger, MatchesNaiveOnGroup256) {
  Xoshiro256ss grng(12);
  pippenger_differential(Group256::generate(96, 64, grng), 13);
}

TEST(Pippenger, AllWindowsAgree) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(14);
  auto [bases, exps] = random_product64(g, 31, rng);
  const auto want = multi_pow_naive<Group64>(g, bases, exps);
  for (unsigned c = 1; c <= kPippengerWindowMax; ++c) {
    EXPECT_EQ(multi_pow_pippenger<Group64>(g, bases, exps, c), want)
        << "window=" << c;
  }
}

TEST(Pippenger, EdgeCases) {
  const Group64& g = Group64::test_group();
  EXPECT_EQ(multi_pow_pippenger<Group64>(g, {}, {}), g.identity());
  std::vector<Group64::Elem> bases{g.z1(), g.z2()};
  std::vector<Group64::Scalar> exps{0, 0};
  EXPECT_EQ(multi_pow_pippenger<Group64>(g, bases, exps), g.identity());
  exps = {12345, 0};
  EXPECT_EQ(multi_pow_pippenger<Group64>(g, bases, exps),
            g.pow(g.z1(), 12345));
  std::vector<Group64::Scalar> short_exps{1};
  EXPECT_THROW(multi_pow_pippenger<Group64>(g, bases, short_exps), CheckError);
}

TEST(Pippenger, CostModelCrossover) {
  // Short products keep Straus; long ones switch to buckets. The exact
  // crossover is a few hundred bases at protocol scalar sizes — pin the
  // regimes well away from it so model tweaks don't churn the test.
  for (unsigned bits : {40u, 160u}) {
    EXPECT_FALSE(multi_pow_prefers_pippenger(1, bits));
    EXPECT_FALSE(multi_pow_prefers_pippenger(8, bits));
    EXPECT_TRUE(multi_pow_prefers_pippenger(2048, bits)) << "bits=" << bits;
  }
  // Degenerate shapes never dispatch to buckets.
  EXPECT_FALSE(multi_pow_prefers_pippenger(4096, 0));
  EXPECT_FALSE(multi_pow_prefers_pippenger(1, 160));
}

TEST(Pippenger, DispatchingMultiPowMatchesNaivePastCrossover) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(15);
  const std::size_t len = 600;
  auto [bases, exps] = random_product64(g, len, rng);
  unsigned max_bits = 0;
  for (const auto& e : exps) max_bits = std::max(max_bits, scalar_bit_length(g, e));
  ASSERT_TRUE(multi_pow_prefers_pippenger(len, max_bits));
  EXPECT_EQ(multi_pow<Group64>(g, bases, exps),
            multi_pow_naive<Group64>(g, bases, exps));
  EXPECT_EQ(multi_pow<Group64>(g, bases, exps),
            multi_pow_straus<Group64>(g, bases, exps));
}

TEST(Pippenger, FewerOpsThanStrausPastCrossover) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(16);
  auto [bases, exps] = random_product64(g, 600, rng);

  OpCountScope bucket_scope;
  (void)multi_pow_pippenger<Group64>(g, bases, exps);
  const auto bucket = bucket_scope.delta();

  OpCountScope straus_scope;
  (void)multi_pow_straus<Group64>(g, bases, exps);
  const auto straus = straus_scope.delta();

  // Both engines honour the op-count contract, so the crossover claim is
  // checkable in counted multiplications, not just wall time.
  EXPECT_LT(bucket.mul, straus.mul);
}

// ---- golden op counts -------------------------------------------------------
//
// Recorded on the lane-grouped bucket queue: the scalar bucket loop
// performs exactly the same multiplications.

/// The bucket method at the model's window and at a fixed c = 4.
template <GroupBackend G>
void expect_golden_pippenger(const G& g, std::uint64_t seed,
                             const std::vector<std::size_t>& lens,
                             const std::vector<OpCounts>& want) {
  ASSERT_EQ(lens.size() * 2, want.size());
  Xoshiro256ss rng(seed);
  for (std::size_t k = 0; k < lens.size(); ++k) {
    const auto [bases, exps] = multiexp_test::shaped_product(g, lens[k], rng);
    const std::string label = "len=" + std::to_string(lens[k]);
    OpCountScope model;
    (void)multi_pow_pippenger<G>(g, bases, exps);
    multiexp_test::expect_ops(model.delta(), want[2 * k], label);
    OpCountScope fixed;
    (void)multi_pow_pippenger<G>(g, bases, exps, 4);
    multiexp_test::expect_ops(fixed.delta(), want[2 * k + 1], label + " c=4");
  }
}

TEST(PippengerSchedule, GoldenOpCountsGroup64) {
  expect_golden_pippenger(Group64::test_group(), 53, {1, 9, 40, 432, 600},
                          {
                              {30, 0, 0, 0}, {43, 0, 0, 0},
                              {0, 0, 0, 0}, {0, 0, 0, 0},
                              {348, 0, 0, 0}, {348, 0, 0, 0},
                              {2445, 0, 0, 0}, {2654, 0, 0, 0},
                              {2815, 0, 0, 0}, {3184, 0, 0, 0},
                          });
}

TEST(PippengerSchedule, GoldenOpCountsGroup256) {
  Xoshiro256ss grng(12);
  expect_golden_pippenger(Group256::generate(96, 64, grng), 54, {7, 432},
                          {
                              {94, 0, 0, 0}, {134, 0, 0, 0},
                              {2100, 0, 0, 0}, {1869, 0, 0, 0},
                          });
}

}  // namespace
}  // namespace dmw::num
