// Unit tests for the benchmark's own arithmetic (stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t count) {
  std::vector<double> values(count);
  std::iota(values.begin(), values.end(), 1.0);  // 1, 2, ..., count
  return values;
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(500), 98.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  for (std::size_t samples = 20; samples < 5000; samples += 37) {
    const double pct = tail_percentile(samples);
    ASSERT_GT(pct, 0.0);
    EXPECT_GE(samples_beyond(samples, pct), kTailBeyond) << samples;
  }
}

TEST(TailPercentile, TooFewSamples) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(10), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
}

TEST(Percentile, NearestRank) {
  const auto values = ramp(100);
  EXPECT_EQ(sorted_percentile(values, 50.0), 50.0);
  EXPECT_EQ(sorted_percentile(values, 90.0), 90.0);
  EXPECT_EQ(sorted_percentile(values, 100.0), 100.0);
  EXPECT_EQ(sorted_percentile(ramp(1), 99.0), 1.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
}

TEST(Percentile, MedianAndMean) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(SteadyWindow, WarmupIsACount) {
  WindowPlan plan;
  plan.warmup_auctions = 5;
  EXPECT_TRUE(plan.warming(4));
  EXPECT_FALSE(plan.warming(5));
}

TEST(SteadyWindow, WindowNeedsTimeAndSamples) {
  WindowPlan plan;
  plan.window_s = 10.0;
  plan.min_auctions = 100;
  EXPECT_FALSE(plan.window_done(5000, 9.99));  // fast build: time decides
  EXPECT_FALSE(plan.window_done(99, 30.0));    // slow build: samples decide
  EXPECT_TRUE(plan.window_done(100, 10.0));
}

/// A closed loop of back-to-back auctions with the given latencies, each
/// costing `cpu_per_ms` ms of CPU per ms of latency.
WindowSamples closed_loop(const std::vector<double>& latencies_ms,
                          double cpu_per_ms = 1.0) {
  WindowSamples w;
  double t = 0;
  for (const double ms : latencies_ms) {
    t += ms * 1e-3;
    w.latency_ms.push_back(ms);
    w.end_s.push_back(t);
    w.cpu_ms.push_back(ms * cpu_per_ms);
  }
  return w;
}

TEST(SteadyWindow, PerAuctionNormalisation) {
  // 180 auctions of 125 ms each, 150 ms of CPU each: 8 auctions/s.
  const auto fig = window_figures(
      closed_loop(std::vector<double>(180, 125.0), 1.2), 100);
  EXPECT_EQ(fig.samples, 180u);
  EXPECT_DOUBLE_EQ(fig.throughput_aps, 8.0);
  EXPECT_DOUBLE_EQ(fig.cpu_ms_per_auction, 150.0);
  EXPECT_DOUBLE_EQ(fig.mean_latency_ms, 125.0);
  EXPECT_EQ(per_auction(1000.0, 8), 125.0);
  EXPECT_EQ(per_auction(1000.0, 0), 0.0);
}

TEST(SteadyWindow, FiguresComeFromTheSlowBlocks) {
  // Sixty-four blocks of 100 auctions. Sixteen (every fourth) are slow:
  // latencies 20.2, 20.4, ..., 40 ms at 1 ms of CPU per ms. The others run
  // at 10 ms and twice the CPU. Every figure reads the slow blocks alone.
  WindowSamples w;
  double t = 0;
  for (std::size_t b = 0; b < kWindowBlocks; ++b) {
    for (std::size_t i = 1; i <= 100; ++i) {
      const bool slow = b % 4 == 0;
      const double ms = slow ? 20.0 + 0.2 * static_cast<double>(i) : 10.0;
      t += ms * 1e-3;
      w.latency_ms.push_back(ms);
      w.end_s.push_back(t);
      w.cpu_ms.push_back(slow ? ms : 2 * ms);
    }
  }
  const auto fig = window_figures(w, 400);
  EXPECT_EQ(fig.samples, 6400u);
  EXPECT_EQ(fig.slow_samples, 1600u);
  // 1600 auctions over 16 x 3.01 s.
  EXPECT_NEAR(fig.throughput_aps, 100.0 / 3.01, 1e-9);
  EXPECT_NEAR(fig.cpu_ms_per_auction, 30.1, 1e-9);
  EXPECT_NEAR(fig.latency_p50_ms, 30.0, 1e-9);   // rank 800 of 1600
  EXPECT_EQ(fig.tail_percentile, 90.0);          // 100 slow at the floor
  EXPECT_NEAR(fig.latency_tail_ms, 38.0, 1e-9);  // rank 1440 of 1600
  EXPECT_NEAR(fig.mean_latency_ms, (1600 * 30.1 + 4800 * 10.0) / 6400, 1e-9);
}

TEST(SteadyWindow, TailLevelFollowsTheSlowFloor) {
  EXPECT_EQ(slow_floor(400), 100u);
  EXPECT_EQ(slow_floor(800), 200u);
  // Rising latencies: the last sixteen blocks (3751..5000) are the slow
  // ones. The level comes from the floor's slow share (200 -> p95), not
  // from the 1250 slow auctions this faster window holds.
  const auto floored = window_figures(closed_loop(ramp(5000)), 800);
  EXPECT_EQ(floored.slow_samples, 1250u);
  EXPECT_EQ(floored.tail_percentile, 95.0);
  EXPECT_EQ(floored.latency_tail_ms, 4938.0);  // rank ceil(0.95 * 1250)
  EXPECT_EQ(floored.latency_p50_ms, 4375.0);
  // A window below its floor reports the level its slow blocks support:
  // blocks of 4-5 auctions, the last sixteen hold 75.
  const auto short_window = window_figures(closed_loop(ramp(300)), 800);
  EXPECT_EQ(short_window.slow_samples, 75u);
  EXPECT_EQ(short_window.tail_percentile, 75.0);
}

TEST(SteadyWindow, GapsBetweenAuctionsCountAgainstTheRate) {
  // The client's own work between auctions is part of each block's wall.
  auto gapped = closed_loop(std::vector<double>(900, 10.0));
  for (std::size_t i = 0; i < gapped.end_s.size(); ++i)
    gapped.end_s[i] += 0.010 * static_cast<double>(i + 1);
  EXPECT_NEAR(window_figures(gapped, 100).throughput_aps, 50.0, 1e-9);
}

TEST(SelfTime, SubtractsDirectChildrenPerThread) {
  // Thread -1: root [0,100) > child [10,40) > grandchild [20,30),
  //            root > child [50,60). Thread 0: a lone span of the child's
  //            name, which must not be charged to thread -1's root.
  const std::vector<SpanInterval> spans = {
      {"child", -1, 10, 40}, {"grandchild", -1, 20, 30},
      {"root", -1, 0, 100},  {"child", -1, 50, 60},
      {"child", 0, 5, 95},
  };
  const auto self = self_time_ns(spans);
  EXPECT_EQ(self.at("root"), 100 - 30 - 10);
  EXPECT_EQ(self.at("child"), (30 - 10) + 10 + 90);
  EXPECT_EQ(self.at("grandchild"), 10);
}

TEST(SelfTime, BackToBackSiblingsAreNotNested) {
  const std::vector<SpanInterval> spans = {
      {"parent", 1, 0, 30}, {"a", 1, 0, 10}, {"b", 1, 10, 20}};
  const auto self = self_time_ns(spans);
  EXPECT_EQ(self.at("parent"), 10);
  EXPECT_EQ(self.at("a"), 10);
  EXPECT_EQ(self.at("b"), 10);
}

TEST(Reconciliation, ModeledShares) {
  CryptoModel crypto;
  crypto.seals = crypto.opens = 528;
  crypto.key_derivations = 264;
  crypto.agents = 12;
  crypto.seal_us = 12;
  crypto.open_us = 12;
  crypto.hkdf_us = 3;
  crypto.bulletin_absorb_us = 100;
  // (528*12 + 528*12 + 264*3 + 12*100) us
  EXPECT_DOUBLE_EQ(crypto.ms(), 14.664);

  NumericModel numeric;
  numeric.mul = 580000;
  numeric.inv = 1000;
  numeric.add = 20000;
  numeric.mul_ns = 9;
  numeric.inv_ns = 400;
  numeric.add_ns = 2;
  EXPECT_DOUBLE_EQ(numeric.ms(), 5.66);

  EXPECT_DOUBLE_EQ(unattributed_frac(14.664, 5.66, 30.0),
                   1.0 - 20.324 / 30.0);
  EXPECT_LT(unattributed_frac(20.0, 20.0, 30.0), 0.0);  // over-modeled
  EXPECT_EQ(unattributed_frac(1.0, 1.0, 0.0), 0.0);
}

}  // namespace
}  // namespace perfbench
