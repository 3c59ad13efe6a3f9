// Ablation bench: the two implementation choices DESIGN.md calls out.
//
// 1. Straus multi-exponentiation vs naive per-term exponentiation in
//    commitment_eval (the inner loop of every verification identity).
// 2. Aggregated Eq. (11) verification (Qhat built once per task, then one
//    commitment_eval per publisher -> O(n^2 log p) per agent) vs the naive
//    reading of the paper (per-pair Gamma_{i,l} -> O(n^3 log p) per agent).
//
// 3. Windowed Straus vs Pippenger buckets for one long product (the shape
//    RLC batch verification produces), locating the real crossover the
//    multi_pow dispatch models (numeric/pippenger.hpp).
//
// 4. The protocol's own call shapes at n = 12, on Group64 and Group256:
//    the Eq. (12) prefix-probe sweep and the III.1 RLC batch product.
//
// 5. The lane engine vs the scalar ladder on batched independent pows (the
//    Phase III share-verify shape) — the scalar-vs-lane ns/op curve the CI
//    simd-ablation artifact records. Both paths compute bit-identical
//    values with identical OpCounts (numeric/montlane.hpp contract); wall
//    time is the only observable difference.
//
// All matter for Theorem 12's claimed bound; this bench quantifies them.
#include <benchmark/benchmark.h>

#include <span>

#include "crypto/chacha.hpp"
#include "dmw/polycommit.hpp"
#include "numeric/multiexp.hpp"
#include "numeric/pippenger.hpp"
#include "numeric/simd.hpp"

namespace {

using dmw::num::Group64;
using dmw::proto::BidPolynomials;
using dmw::proto::CommitmentVectors;
using dmw::proto::PublicParams;

struct Fixture {
  PublicParams<Group64> params;
  std::vector<CommitmentVectors<Group64>> commitments;  // one per agent

  explicit Fixture(std::size_t n)
      : params(PublicParams<Group64>::make(Group64::test_group(), n, 1,
                                           /*max_faulty=*/1, /*seed=*/n)) {
    auto rng = dmw::crypto::ChaChaRng::from_seed(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto bid = params.bid_set().values()[i % params.bid_set().size()];
      commitments.push_back(CommitmentVectors<Group64>::commit(
          params, BidPolynomials<Group64>::sample(params, bid, rng)));
    }
  }
};

void BM_CommitmentEvalStraus(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto alpha = fx.params.pseudonym(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::proto::commitment_eval<Group64>(
        fx.params.group(), fx.commitments[0].Q, alpha));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CommitmentEvalStraus)->RangeMultiplier(2)->Range(4, 32)->Complexity();

void BM_CommitmentEvalNaive(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto alpha = fx.params.pseudonym(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::proto::commitment_eval_naive<Group64>(
        fx.params.group(), fx.commitments[0].Q, alpha));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CommitmentEvalNaive)->RangeMultiplier(2)->Range(4, 32)->Complexity();

// Same evaluation through a CommitmentEvalCache: the per-base window tables
// are built once outside the loop, as the agents' Phase III loops do.
void BM_CommitmentEvalCached(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  const auto alpha = fx.params.pseudonym(0);
  const dmw::proto::CommitmentEvalCache<Group64> cache(fx.params.group(),
                                                       fx.commitments[0].Q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.eval(alpha));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CommitmentEvalCached)->RangeMultiplier(2)->Range(4, 32)->Complexity();

// Eq. (11) verification for all n publishers, aggregated: build Qhat once
// (n * sigma multiplications), then evaluate it at every pseudonym.
void BM_Eq11Aggregated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture fx(n);
  const Group64& g = fx.params.group();
  for (auto _ : state) {
    const std::size_t sigma = fx.params.sigma();
    std::vector<Group64::Elem> qhat(sigma, g.identity());
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t l = 0; l < sigma; ++l)
        qhat[l] = g.mul(qhat[l], fx.commitments[k].Q[l]);
    Group64::Elem sink = g.identity();
    for (std::size_t i = 0; i < n; ++i) {
      sink = g.mul(sink, dmw::proto::commitment_eval<Group64>(
                             g, qhat, fx.params.pseudonym(i)));
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Eq11Aggregated)->RangeMultiplier(2)->Range(4, 32)->Complexity();

// Naive reading: every verifier i recomputes Gamma_{i,l} for every
// publisher l — n^2 commitment evaluations.
void BM_Eq11Naive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture fx(n);
  const Group64& g = fx.params.group();
  for (auto _ : state) {
    Group64::Elem sink = g.identity();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < n; ++l) {
        sink = g.mul(sink, dmw::proto::commitment_eval<Group64>(
                               g, fx.commitments[l].Q,
                               fx.params.pseudonym(i)));
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Eq11Naive)->RangeMultiplier(2)->Range(4, 16)->Complexity();

// ---- Straus vs Pippenger on one long product -------------------------------
//
// The RLC batch verifier settles each task with a single product over up to
// 3 * (n-1) * sigma bases; these benches sweep the base count across the
// modeled crossover (a few hundred bases at 40-bit exponents) so the JSON
// artifact shows which engine wins where — and that the multi_pow dispatch
// picks the winner.

struct ProductFixture {
  Group64 g = Group64::test_group();
  std::vector<Group64::Elem> bases;
  std::vector<Group64::Scalar> exps;

  explicit ProductFixture(std::size_t len) {
    auto rng = dmw::crypto::ChaChaRng::from_seed(len);
    for (std::size_t i = 0; i < len; ++i) {
      bases.push_back(g.pow(g.z1(), g.random_nonzero_scalar(rng)));
      exps.push_back(g.random_nonzero_scalar(rng));
    }
  }
};

void BM_MultiPowStraus(benchmark::State& state) {
  ProductFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::num::multi_pow_straus<Group64>(
        fx.g, std::span<const Group64::Elem>(fx.bases),
        std::span<const Group64::Scalar>(fx.exps)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiPowStraus)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_MultiPowPippenger(benchmark::State& state) {
  ProductFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::num::multi_pow_pippenger<Group64>(
        fx.g, std::span<const Group64::Elem>(fx.bases),
        std::span<const Group64::Scalar>(fx.exps)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiPowPippenger)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

// The dispatcher itself: must track min(Straus, Pippenger) at every length.
void BM_MultiPowDispatch(benchmark::State& state) {
  ProductFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::num::multi_pow<Group64>(
        fx.g, std::span<const Group64::Elem>(fx.bases),
        std::span<const Group64::Scalar>(fx.exps)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultiPowDispatch)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

// ---- the protocol's call shapes -----------------------------------------
//
// At n = 12 (sigma = 12) two shapes carry Phase III's multi-exponentiation
// time. Degree resolution (paper Eq. (12), resolve_degree_in_exponent)
// probes the prefixes s = 1..12 of the Lambda vector, one multi_pow each,
// with Lagrange coefficients rho as exponents (uniform scalars: 40 bits on
// Group64, 160 on the Group256 fixture). The III.1 RLC batch settles
// 3 * n * sigma = 432 bases in one product, past the Pippenger crossover;
// its Straus and Pippenger rows show what the dispatch chooses between.
// Each iteration takes the next of kShapeSets pre-drawn exponent vectors,
// so consecutive iterations never repeat an input.

using dmw::num::Group256;

constexpr std::size_t kProbeN = 12;
constexpr std::size_t kRlcBases = 3 * 12 * 12;
constexpr std::size_t kShapeSets = 16;

const Group256& shape_group256() {
  static const Group256 g = [] {
    dmw::Xoshiro256ss rng(1);
    // The bench_json fixture: 250-bit p, 160-bit q.
    return Group256::generate(250, 160, rng);
  }();
  return g;
}

template <class G>
struct ShapeFixture {
  const G& g;
  std::vector<typename G::Elem> bases;
  std::vector<std::vector<typename G::Scalar>> exps;  // kShapeSets vectors

  ShapeFixture(const G& group, std::size_t len) : g(group) {
    auto rng = dmw::crypto::ChaChaRng::from_seed(len);
    for (std::size_t i = 0; i < len; ++i)
      bases.push_back(g.pow(g.z1(), g.random_nonzero_scalar(rng)));
    exps.resize(kShapeSets);
    for (auto& v : exps)
      for (std::size_t i = 0; i < len; ++i)
        v.push_back(g.random_nonzero_scalar(rng));
  }
};

template <class G>
void probe_sweep(benchmark::State& state, const G& g) {
  const ShapeFixture<G> fx(g, kProbeN);
  std::size_t set = 0;
  for (auto _ : state) {
    const auto& rho = fx.exps[set++ % kShapeSets];
    for (std::size_t s = 1; s <= kProbeN; ++s) {
      benchmark::DoNotOptimize(dmw::num::multi_pow<G>(
          g, std::span<const typename G::Elem>(fx.bases.data(), s),
          std::span<const typename G::Scalar>(rho.data(), s)));
    }
  }
}

void BM_DegreeProbeSweep64(benchmark::State& state) {
  probe_sweep(state, Group64::test_group());
}
BENCHMARK(BM_DegreeProbeSweep64);

void BM_DegreeProbeSweep256(benchmark::State& state) {
  probe_sweep(state, shape_group256());
}
BENCHMARK(BM_DegreeProbeSweep256);

enum class Engine { kDispatch, kStraus, kPippenger };

template <class G>
void rlc_batch(benchmark::State& state, const G& g, Engine engine) {
  const ShapeFixture<G> fx(g, kRlcBases);
  const std::span<const typename G::Elem> bases(fx.bases);
  std::size_t set = 0;
  for (auto _ : state) {
    const std::span<const typename G::Scalar> exps(fx.exps[set++ % kShapeSets]);
    switch (engine) {
      case Engine::kDispatch:
        benchmark::DoNotOptimize(dmw::num::multi_pow<G>(g, bases, exps));
        break;
      case Engine::kStraus:
        benchmark::DoNotOptimize(dmw::num::multi_pow_straus<G>(g, bases, exps));
        break;
      case Engine::kPippenger:
        benchmark::DoNotOptimize(
            dmw::num::multi_pow_pippenger<G>(g, bases, exps));
        break;
    }
  }
}

void BM_RlcBatch64(benchmark::State& state) {
  rlc_batch(state, Group64::test_group(), Engine::kDispatch);
}
BENCHMARK(BM_RlcBatch64);
void BM_RlcBatchStraus64(benchmark::State& state) {
  rlc_batch(state, Group64::test_group(), Engine::kStraus);
}
BENCHMARK(BM_RlcBatchStraus64);
void BM_RlcBatchPippenger64(benchmark::State& state) {
  rlc_batch(state, Group64::test_group(), Engine::kPippenger);
}
BENCHMARK(BM_RlcBatchPippenger64);

void BM_RlcBatch256(benchmark::State& state) {
  rlc_batch(state, shape_group256(), Engine::kDispatch);
}
BENCHMARK(BM_RlcBatch256);
void BM_RlcBatchStraus256(benchmark::State& state) {
  rlc_batch(state, shape_group256(), Engine::kStraus);
}
BENCHMARK(BM_RlcBatchStraus256);
void BM_RlcBatchPippenger256(benchmark::State& state) {
  rlc_batch(state, shape_group256(), Engine::kPippenger);
}
BENCHMARK(BM_RlcBatchPippenger256);

// ---- lane engine vs scalar ladder on batched independent pows --------------
//
// multi_pow_batched is the batched counterpart of calling g.pow in a loop:
// out[j] = bases[j]^{e_j}, no shared squaring chain. The lane engine groups
// the ladders kLanes at a time; the sweep shows the per-element speedup as
// the batch grows past kLanes (ragged tails shrink relative to the body).
// The SetLabel records which kernel this host actually dispatched so the
// uploaded artifact is self-describing.

template <class G>
void pow_batched_sweep(benchmark::State& state, const G& proto,
                       dmw::num::simd::SimdMode mode) {
  const auto len = static_cast<std::size_t>(state.range(0));
  G g = proto;
  g.set_simd_mode(mode);
  auto rng = dmw::crypto::ChaChaRng::from_seed(len);
  std::vector<typename G::Elem> bases;
  std::vector<typename G::Scalar> exps;
  for (std::size_t i = 0; i < len; ++i) {
    bases.push_back(g.pow(g.z1(), g.random_nonzero_scalar(rng)));
    exps.push_back(g.random_nonzero_scalar(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::num::multi_pow_batched<G>(
        g, std::span<const typename G::Elem>(bases),
        std::span<const typename G::Scalar>(exps)));
  }
  state.SetLabel(dmw::num::simd::backend_name(
      dmw::num::simd::active_backend()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
  state.SetComplexityN(state.range(0));
}

void BM_PowBatchedLanes64(benchmark::State& state) {
  pow_batched_sweep(state, Group64::test_group(),
                    dmw::num::simd::SimdMode::kOn);
}
BENCHMARK(BM_PowBatchedLanes64)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_PowBatchedScalar64(benchmark::State& state) {
  pow_batched_sweep(state, Group64::test_group(),
                    dmw::num::simd::SimdMode::kOff);
}
BENCHMARK(BM_PowBatchedScalar64)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

// Group256 rides the interleaved-CIOS MontLane specialization; smaller
// sweep — each 256-bit ladder is ~two orders of magnitude more work.
void BM_PowBatchedLanes256(benchmark::State& state) {
  static const Group256 g256 = [] {
    dmw::Xoshiro256ss rng(256);
    return Group256::generate(96, 64, rng);
  }();
  pow_batched_sweep(state, g256, dmw::num::simd::SimdMode::kOn);
}
BENCHMARK(BM_PowBatchedLanes256)->RangeMultiplier(4)->Range(4, 64);

void BM_PowBatchedScalar256(benchmark::State& state) {
  static const Group256 g256 = [] {
    dmw::Xoshiro256ss rng(256);
    return Group256::generate(96, 64, rng);
  }();
  pow_batched_sweep(state, g256, dmw::num::simd::SimdMode::kOff);
}
BENCHMARK(BM_PowBatchedScalar256)->RangeMultiplier(4)->Range(4, 64);

}  // namespace

BENCHMARK_MAIN();
