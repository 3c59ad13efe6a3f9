// A-crypto: microbenchmarks of the cryptographic substrate — the unit costs
// behind Theorem 12's O(m n^2 log p) bound, on both group backends.
#include <benchmark/benchmark.h>

#include "crypto/chacha.hpp"
#include "crypto/sha256.hpp"
#include "numeric/group.hpp"
#include "support/rng.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group64;
using dmw::num::Group256;

const Group256& big_group() {
  static const Group256 g = [] {
    Xoshiro256ss rng(1);
    // 250-bit p (the backend reserves one limb bit), 160-bit q.
    return Group256::generate(250, 160, rng);
  }();
  return g;
}

void BM_ModExp64(benchmark::State& state) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(2);
  const auto e = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.pow(g.z1(), e));
}
BENCHMARK(BM_ModExp64);

void BM_ModExp64Naive(benchmark::State& state) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(2);
  const auto e = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.pow_naive(g.z1(), e));
}
BENCHMARK(BM_ModExp64Naive);

void BM_ModExp256(benchmark::State& state) {
  const Group256& g = big_group();
  Xoshiro256ss rng(3);
  const auto e = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.pow(g.z1(), e));
}
BENCHMARK(BM_ModExp256);

void BM_ModExp256Naive(benchmark::State& state) {
  const Group256& g = big_group();
  Xoshiro256ss rng(3);
  const auto e = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.pow_naive(g.z1(), e));
}
BENCHMARK(BM_ModExp256Naive);

void BM_PedersenCommit64(benchmark::State& state) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(4);
  const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.commit(a, b));
}
BENCHMARK(BM_PedersenCommit64);

void BM_PedersenCommit64Naive(benchmark::State& state) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(4);
  const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.commit_naive(a, b));
}
BENCHMARK(BM_PedersenCommit64Naive);

void BM_PedersenCommit256(benchmark::State& state) {
  const Group256& g = big_group();
  Xoshiro256ss rng(5);
  const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.commit(a, b));
}
BENCHMARK(BM_PedersenCommit256);

void BM_PedersenCommit256Naive(benchmark::State& state) {
  const Group256& g = big_group();
  Xoshiro256ss rng(5);
  const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.commit_naive(a, b));
}
BENCHMARK(BM_PedersenCommit256Naive);

void BM_ModInverse64(benchmark::State& state) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(6);
  const auto a = g.random_nonzero_scalar(rng);
  for (auto _ : state) benchmark::DoNotOptimize(g.sinv(a));
}
BENCHMARK(BM_ModInverse64);

void BM_Sha256Throughput(benchmark::State& state) {
  const std::vector<std::uint8_t> buffer(
      static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dmw::crypto::Sha256::hash(buffer));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(dmw::crypto::sha256_backend());
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ChaChaRngU64(benchmark::State& state) {
  auto rng = dmw::crypto::ChaChaRng::from_seed(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ChaChaRngU64);

void BM_XoshiroU64(benchmark::State& state) {
  Xoshiro256ss rng(8);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetBytesProcessed(state.iterations() * 8);
}
BENCHMARK(BM_XoshiroU64);

void BM_GroupGeneration64(benchmark::State& state) {
  Xoshiro256ss rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Group64::generate(48, 32, rng));
  }
}
BENCHMARK(BM_GroupGeneration64);

}  // namespace

BENCHMARK_MAIN();
