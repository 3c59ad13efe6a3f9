// Server mode: request-stream determinism, arrival statistics, the
// steady-state contract (allocation-free bookkeeping and a flat live heap,
// via a counting operator new), and the identity contract (per-auction
// Outcomes byte-identical to the one-shot sequential runner at every thread
// count, pinned by the stream digest).
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dmw/serve.hpp"
#include "numeric/group.hpp"
#include "support/stats.hpp"

// ---- Counting operator new -------------------------------------------------
// Thread-local allocation counter: the steady-state tests assert that the
// per-auction bookkeeping path (latency record + window summaries) performs
// zero heap allocations once warmed up. The process-wide
// live-byte balance (usable bytes allocated minus freed, from any thread)
// shows whether auctions leak.
namespace {
thread_local std::uint64_t t_allocations = 0;
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_malloc(std::size_t size) {
  ++t_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr)
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
// The nothrow forms too (std::stable_partition's temporary buffer uses
// them): memory from the default allocator must not reach these deletes.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace dmw::proto {
namespace {

using num::Group64;

const Group64& grp() { return Group64::test_group(); }

// ---- Request stream --------------------------------------------------------

TEST(ServeStream, GeneratorIsDeterministic) {
  ArrivalProcess a1(ArrivalProcess::Mode::kPoisson, 250.0, 7);
  ArrivalProcess a2(ArrivalProcess::Mode::kPoisson, 250.0, 7);
  const auto s1 = make_request_stream(64, 42, WorkloadKind::kMachine, a1);
  const auto s2 = make_request_stream(64, 42, WorkloadKind::kMachine, a2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].id, i);
    EXPECT_EQ(s1[i].seed, 42 + i);
    EXPECT_EQ(s1[i].workload, WorkloadKind::kMachine);
    EXPECT_EQ(s1[i].arrival_ns, s2[i].arrival_ns);
  }
  // Arrivals are strictly ordered and (at 250/s) strictly increasing with
  // overwhelming probability over 64 draws.
  for (std::size_t i = 1; i < s1.size(); ++i)
    EXPECT_GE(s1[i].arrival_ns, s1[i - 1].arrival_ns);
}

TEST(ServeStream, InstanceDerivationMatchesOneShotDriver) {
  // make_workload_instance(seed) must equal the generator seeded with
  // seed*3+1 — dmw_sim's derivation, so --instance-seed replays it.
  const mech::BidSet bids = PublicParams<Group64>::make(grp(), 5, 3, 1, 9)
                                .bid_set();
  Xoshiro256ss rng(11 * 3 + 1);
  const auto direct = mech::make_uniform_instance(5, 3, bids, rng);
  const auto served =
      make_workload_instance(WorkloadKind::kUniform, 5, 3, bids, 11);
  EXPECT_EQ(direct.cost, served.cost);
}

TEST(ServeStream, SecretSeedDerivationDecorrelatesRequests) {
  const std::uint64_t base = RunConfig{}.secret_seed;
  EXPECT_EQ(serve_secret_seed(base, 0), base);  // request 0 = one-shot default
  EXPECT_NE(serve_secret_seed(base, 1), serve_secret_seed(base, 2));
  EXPECT_NE(serve_secret_seed(base, 1), base);
}

TEST(ServeStream, FixedAndPoissonArrivalStatistics) {
  ArrivalProcess fixed(ArrivalProcess::Mode::kFixed, 1000.0, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fixed.next_gap_ns(), 1000000);

  // Poisson at 1e6/s: mean gap 1000ns. 40k draws put the sample mean within
  // a few percent with overwhelming probability.
  ArrivalProcess poisson(ArrivalProcess::Mode::kPoisson, 1e6, 3);
  double sum = 0;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i)
    sum += static_cast<double>(poisson.next_gap_ns());
  const double mean = sum / draws;
  EXPECT_GT(mean, 900.0);
  EXPECT_LT(mean, 1100.0);
}

// ---- Latency bookkeeping ---------------------------------------------------

TEST(LatencyRecorder, MatchesStatsPercentile) {
  LatencyRecorder recorder(128);
  std::vector<double> reference;
  for (int i = 1; i <= 100; ++i) {
    recorder.record(i * 1000000);  // 1..100 ms
    reference.push_back(static_cast<double>(i));
  }
  const auto s = recorder.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50_ms, percentile(reference, 50.0), 1e-9);
  EXPECT_NEAR(s.p95_ms, percentile(reference, 95.0), 1e-9);
  EXPECT_NEAR(s.p99_ms, percentile(reference, 99.0), 1e-9);
  EXPECT_NEAR(s.max_ms, 100.0, 1e-9);
  EXPECT_NEAR(s.mean_ms, 50.5, 1e-9);

  // Window summary covers only the trailing records.
  const auto tail = recorder.summary(10);
  EXPECT_EQ(tail.count, 10u);
  EXPECT_NEAR(tail.mean_ms, 95.5, 1e-9);
}

TEST(LatencyRecorder, SteadyStateRecordingIsAllocationFree) {
  LatencyRecorder recorder(4096);
  for (int i = 0; i < 100; ++i) recorder.record(i);  // warm the scratch
  (void)recorder.summary(50);
  const std::uint64_t before = t_allocations;
  for (int i = 0; i < 2000; ++i) recorder.record(i * 17);
  (void)recorder.summary(500);
  (void)recorder.summary();
  EXPECT_EQ(t_allocations, before);
}

// ---- Engine identity and steady state --------------------------------------

ServeEngine<Group64>::Config engine_config(std::size_t threads,
                                           bool check_oneshot) {
  ServeEngine<Group64>::Config config;
  config.threads = threads;
  config.check_oneshot = check_oneshot;
  return config;
}

/// Run `count` auctions through a fresh engine and return the stream digest.
std::string run_stream_digest(const PublicParams<Group64>& params,
                              const std::vector<AuctionRequest>& stream,
                              std::size_t threads, bool check_oneshot) {
  ServeEngine<Group64> engine(params, engine_config(threads, check_oneshot));
  for (const auto& request : stream) {
    const Outcome& outcome = engine.run_auction(request);
    EXPECT_FALSE(outcome.aborted) << "request " << request.id;
  }
  EXPECT_EQ(engine.aborted(), 0u);
  EXPECT_EQ(engine.oneshot_mismatches(), 0u);
  return engine.outcome_digest();
}

TEST(ServeEngine, OutcomesIdenticalToOneShotAcrossThreadsAndSchedules) {
  const auto params = PublicParams<Group64>::make(grp(), 5, 2, 1, 21);
  ArrivalProcess arrivals(ArrivalProcess::Mode::kAsap, 0.0, 0);
  const auto stream =
      make_request_stream(10, 21, WorkloadKind::kUniform, arrivals);

  // threads=1 with the sequential cross-check anchors the digest; every
  // other thread count must reproduce it bit for bit.
  const std::string anchor =
      run_stream_digest(params, stream, 1, /*check_oneshot=*/true);
  EXPECT_EQ(anchor, run_stream_digest(params, stream, 4,
                                      /*check_oneshot=*/true));
  EXPECT_EQ(anchor, run_stream_digest(params, stream, 2, false));
}

TEST(ServeEngine, MixedWorkloadStreamStaysIdentical) {
  const auto params = PublicParams<Group64>::make(grp(), 4, 2, 1, 5);
  std::vector<AuctionRequest> stream;
  const WorkloadKind kinds[] = {WorkloadKind::kUniform, WorkloadKind::kMachine,
                                WorkloadKind::kTask, WorkloadKind::kWorst};
  for (std::uint64_t i = 0; i < 8; ++i)
    stream.push_back(AuctionRequest{i, 5 + i, kinds[i % 4], 0});
  const std::string anchor = run_stream_digest(params, stream, 1, true);
  EXPECT_EQ(anchor, run_stream_digest(params, stream, 4, false));
  // Pinned across commits too, not only across thread counts: a change to
  // the digest encoding, or to any Outcome field it covers, shows up here.
  EXPECT_EQ(anchor,
            "53971548777be6b71b9cdaf8239202d941708859c4074544654f5e5c16999d01");
}

// The two static-schedule switches exist only for source compatibility
// and must refuse to turn that schedule on.
TEST(ServeEngine, StaticScheduleVestigesRejectTrue) {
  EXPECT_THROW(ThreadPool(2, /*deterministic=*/true), dmw::CheckError);
  const auto params = PublicParams<Group64>::make(grp(), 4, 1, 1, 13);
  auto config = engine_config(2, false);
  config.deterministic_schedule = true;
  EXPECT_THROW(ServeEngine<Group64>(params, config), dmw::CheckError);
}

// Every auction's heap is returned once it is served: after warmup (lazy
// tables, vector high-water marks) the live heap stays flat.
// Sealed channels and the pipelined engine, at one and two workers.
TEST(ServeEngine, SteadyStateLiveHeapDoesNotGrow) {
  for (const std::size_t threads : {1u, 2u}) {
    const auto params = PublicParams<Group64>::make(grp(), 5, 2, 1, 17);
    ArrivalProcess arrivals(ArrivalProcess::Mode::kAsap, 0.0, 0);
    const auto stream =
        make_request_stream(96, 17, WorkloadKind::kUniform, arrivals);
    ServeEngine<Group64> engine(params, engine_config(threads, false));
    const std::size_t warmup = 32;
    std::int64_t live_at_warmup = 0;
    for (const auto& request : stream) {
      engine.run_auction(request);
      if (engine.auctions() == warmup)
        live_at_warmup = g_live_bytes.load(std::memory_order_relaxed);
    }
    EXPECT_EQ(engine.aborted(), 0u);
    const std::int64_t growth =
        g_live_bytes.load(std::memory_order_relaxed) - live_at_warmup;
    const auto served = static_cast<std::int64_t>(stream.size() - warmup);
    EXPECT_LT(growth, 64 * served)
        << threads << " workers: " << growth << " B over " << served
        << " auctions";
  }
}

TEST(ServeEngine, AbortedAuctionsAreCountedAndDigested) {
  // A one-task instance where agent secrets collide enough to abort is hard
  // to fabricate honestly; instead check the bookkeeping contract directly:
  // honest streams count zero aborts and the digest moves per auction.
  const auto params = PublicParams<Group64>::make(grp(), 4, 1, 1, 13);
  ServeEngine<Group64> engine(params, engine_config(1, false));
  const std::string empty = engine.outcome_digest();
  engine.run_auction(AuctionRequest{0, 13, WorkloadKind::kUniform, 0});
  const std::string one = engine.outcome_digest();
  EXPECT_NE(empty, one);
  engine.run_auction(AuctionRequest{1, 14, WorkloadKind::kUniform, 0});
  EXPECT_NE(one, engine.outcome_digest());
  EXPECT_EQ(engine.auctions(), 2u);
  EXPECT_EQ(engine.aborted(), 0u);
}

}  // namespace
}  // namespace dmw::proto
