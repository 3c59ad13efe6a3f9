// Communication-ledger conformance: the per-(phase, round, kind, sender)
// ledger a traced run exports (net/network.hpp) must equal the closed-form
// honest-run expectations of exp/commexpect.hpp exactly — the executable
// statement of Theorem 11's cost bookkeeping — and must be bit-identical
// across thread counts and schedule disciplines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dmw/parallel.hpp"
#include "dmw/protocol.hpp"
#include "exp/commexpect.hpp"
#include "mech/minwork.hpp"
#include "support/trace.hpp"

namespace dmw::exp {
namespace {

using num::Group64;

const Group64& grp() { return Group64::test_group(); }

/// Every test starts and ends with the process-wide tracer disabled and
/// zeroed (the test_trace.cpp discipline), so the ledger state of one test
/// cannot leak into the next.
class CommLedger : public ::testing::Test {
 protected:
  void SetUp() override { restore(); }
  void TearDown() override { restore(); }

  static void restore() {
    auto& tracer = trace::Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_clock_mode(trace::ClockMode::kReal);
    tracer.reset();
  }
};

/// Row-by-row equality with a readable failure message.
void expect_rows_equal(const std::vector<net::CommRow>& measured,
                       const std::vector<net::CommRow>& expected) {
  ASSERT_EQ(measured.size(), expected.size());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const auto& got = measured[i];
    const auto& want = expected[i];
    SCOPED_TRACE("row " + std::to_string(i) + ": phase=" + want.phase_label +
                 " kind=" + want.kind_name +
                 " sender=" + std::to_string(want.key.sender));
    EXPECT_TRUE(got.key == want.key);
    EXPECT_EQ(got.phase_label, want.phase_label);
    EXPECT_EQ(got.kind_name, want.kind_name);
    EXPECT_EQ(got.counts.messages, want.counts.messages);
    EXPECT_EQ(got.counts.wire_bytes, want.counts.wire_bytes);
    EXPECT_EQ(got.counts.p2p_messages, want.counts.p2p_messages);
    EXPECT_EQ(got.counts.p2p_bytes, want.counts.p2p_bytes);
  }
}

proto::Outcome run_traced(const proto::PublicParams<Group64>& params,
                          const mech::SchedulingInstance& instance,
                          const proto::RunConfig& config) {
  trace::Tracer::instance().set_enabled(true);
  const auto outcome = proto::run_honest_dmw(params, instance, config);
  trace::Tracer::instance().set_enabled(false);
  return outcome;
}

TEST_F(CommLedger, HonestRunMatchesClosedFormExactly) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 6, 3, 1, 91);
  Xoshiro256ss rng(92);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);
  proto::RunConfig config;
  config.encrypt_channels = false;

  const auto outcome = run_traced(params, instance, config);
  ASSERT_FALSE(outcome.aborted);

  const auto spec = comm_spec_for(params, outcome, config);
  expect_rows_equal(outcome.comm, expected_honest_comm(spec));
}

TEST_F(CommLedger, EncryptedRunAddsKeyExchangeAndAeadOverhead) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 6, 3, 1, 91);
  Xoshiro256ss rng(92);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);
  proto::RunConfig config;
  config.encrypt_channels = true;

  const auto outcome = run_traced(params, instance, config);
  ASSERT_FALSE(outcome.aborted);

  const auto spec = comm_spec_for(params, outcome, config);
  const auto expected = expected_honest_comm(spec);
  expect_rows_equal(outcome.comm, expected);

  // The encrypted ledger differs from the plaintext closed form in exactly
  // two places: n key-exchange postings appear, and every share envelope
  // grows by the nonce + AEAD tag.
  const auto totals = comm_totals_by_kind(expected);
  EXPECT_EQ(totals.at("key_exchange").messages, params.n());
  CommSpec plain = spec;
  plain.encrypt_channels = false;
  EXPECT_EQ(expected_wire_size(spec, proto::MsgKind::kShares),
            expected_wire_size(plain, proto::MsgKind::kShares) + 4 + 16);
}

TEST_F(CommLedger, CrashTolerantQuorumPadsDisclosures) {
  const auto params =
      proto::PublicParams<Group64>::make_crash_tolerant(grp(), 8, 2, 2, 93);
  Xoshiro256ss rng(94);
  const auto instance =
      mech::make_uniform_instance(8, 2, params.bid_set(), rng);
  proto::RunConfig config;
  config.encrypt_channels = false;

  const auto outcome = run_traced(params, instance, config);
  ASSERT_FALSE(outcome.aborted);

  const auto spec = comm_spec_for(params, outcome, config);
  ASSERT_TRUE(spec.crash_tolerant);
  expect_rows_equal(outcome.comm, expected_honest_comm(spec));

  // c extra prescribed disclosers per task versus the fault-free quorum.
  for (std::size_t j = 0; j < spec.m; ++j)
    EXPECT_EQ(expected_disclosers(spec, j),
              static_cast<std::size_t>(spec.first_prices[j]) + 1 + spec.c);
}

TEST_F(CommLedger, LedgerTotalsMatchTrafficStats) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 8, 4, 2, 95);
  Xoshiro256ss rng(96);
  const auto instance =
      mech::make_uniform_instance(8, 4, params.bid_set(), rng);

  const auto outcome = run_traced(params, instance, proto::RunConfig{});
  ASSERT_FALSE(outcome.aborted);

  // The ledger and TrafficStats bill the same wire sizes at the same call
  // sites, so their totals must agree field for field.
  const auto total = comm_grand_total(outcome.comm);
  const auto& traffic = outcome.traffic;
  EXPECT_EQ(total.messages,
            traffic.unicast_messages + traffic.broadcast_messages);
  EXPECT_EQ(total.wire_bytes,
            traffic.unicast_bytes + traffic.broadcast_bytes);
  EXPECT_EQ(total.p2p_messages, traffic.p2p_equivalent_messages);
  EXPECT_EQ(total.p2p_bytes, traffic.p2p_equivalent_bytes);
}

TEST_F(CommLedger, LedgerBitIdenticalAcrossThreadsAndSchedules) {
  auto params = proto::PublicParams<Group64>::make(grp(), 8, 3, 2, 77);
  Xoshiro256ss rng(78);
  const auto instance =
      mech::make_uniform_instance(8, 3, params.bid_set(), rng);

  // Sequential reference, already pinned to the closed form above.
  proto::RunConfig config;
  const auto reference = run_traced(params, instance, config);
  ASSERT_FALSE(reference.aborted);
  const auto spec = comm_spec_for(params, reference, config);
  expect_rows_equal(reference.comm, expected_honest_comm(spec));

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    trace::Tracer::instance().reset();
    trace::Tracer::instance().set_enabled(true);
    const auto outcome = proto::run_parallel_dmw(params, instance, threads);
    trace::Tracer::instance().set_enabled(false);
    ASSERT_FALSE(outcome.aborted);
    expect_rows_equal(outcome.comm, reference.comm);
  }
}

TEST_F(CommLedger, UntracedRunLeavesLedgerEmpty) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 6, 2, 1, 97);
  Xoshiro256ss rng(98);
  const auto instance =
      mech::make_uniform_instance(6, 2, params.bid_set(), rng);

  // No tracer: the hot path takes the single predicted branch and records
  // nothing, so the exported ledger must stay empty (the overhead contract).
  const auto outcome = proto::run_honest_dmw(params, instance);
  ASSERT_FALSE(outcome.aborted);
  EXPECT_TRUE(outcome.comm.empty());
  EXPECT_GT(outcome.traffic.p2p_equivalent_messages, 0u);
}

}  // namespace
}  // namespace dmw::exp
