// Modular-operation counters.
//
// Theorem 12 bounds DMW's computational cost by counting modular
// multiplications and exponentiations. The benchmark harness validates the
// claimed O(m n^2 log p) shape with these counters rather than wall time
// alone, which makes the fit independent of machine noise.
//
// Accounting contract (all arithmetic tiers follow it, so fast and naive
// paths are directly comparable):
//
//   - `mul` counts every modular multiplication actually executed, including
//     squarings, window-table construction, Montgomery-domain conversions
//     (each is one Montgomery multiplication), and the multiplications
//     *inside* exponentiation loops. A windowed exponentiation therefore
//     reports fewer `mul`s than a square-and-multiply one — that difference
//     is the measured saving, not an accounting artifact.
//   - `pow` counts exponentiation *calls* (one per `pow`; a Pedersen
//     `commit` counts two — it raises both bases), on top of the `mul`s the
//     call performs. Use it for "number of exponentiations" accounting
//     (e.g. Thm. 12's O(n^2) exponentiations per agent), never as a proxy
//     for multiplication work.
//   - `inv` / `add` count modular inverses and additions/subtractions.
//
// Comparing the total modular work of two code paths means comparing
// `mul` (+ `add`/`inv` where relevant); comparing `pow` alone only says how
// often exponentiation was invoked.
//
// Lane-grouped crediting (numeric/montlane.hpp): when the vectorized
// Montgomery tier retires a group of kLanes multiplications as one SIMD
// kernel call, it credits one `mul` per *active lane slot* — masked padding
// slots whose outputs are discarded are never counted. A lane-batched
// exponentiation likewise credits one `pow` per element plus exactly the
// ladder's per-element `mul`s (1 domain entry + bits-1 squarings +
// popcount-1 products + 1 domain exit, zero exponents just the `pow`).
// Consequence: OpCounts — and therefore RunReports — are bit-identical
// across SimdMode off/auto/on; the grouping is visible only in wall time
// and in the separate simd::lane_ops() engine telemetry (thread-local
// kernel-dispatch counter, deliberately NOT part of OpCounts so reports
// never depend on the host ISA).
#pragma once

#include <cstdint>

namespace dmw::num {

struct OpCounts {
  std::uint64_t mul = 0;   ///< modular multiplications (incl. inside pows)
  std::uint64_t pow = 0;   ///< modular exponentiation calls
  std::uint64_t inv = 0;   ///< modular inverses
  std::uint64_t add = 0;   ///< modular additions/subtractions

  OpCounts& operator+=(const OpCounts& o) {
    mul += o.mul;
    pow += o.pow;
    inv += o.inv;
    add += o.add;
    return *this;
  }
  friend OpCounts operator-(OpCounts a, const OpCounts& b) {
    a.mul -= b.mul;
    a.pow -= b.pow;
    a.inv -= b.inv;
    a.add -= b.add;
    return a;
  }
  std::uint64_t total() const { return mul + pow + inv + add; }
};

/// Per-thread counters. Every arithmetic tier increments the counters of the
/// thread it runs on, so workers of the task-parallel engine never contend on
/// (or tear) a shared counter; the parallel driver snapshots each worker's
/// delta with OpCountScope inside the job and merges the deltas at the stage
/// barrier. Single-threaded callers see the historical process-wide
/// behaviour unchanged. Inline, so every counted multiplication inlines
/// into its loop with the counter bump (OpCounts is constant-initialized:
/// the thread_local needs no first-use guard).
inline OpCounts& op_counts() {
  thread_local OpCounts counts;
  return counts;
}

/// RAII scope that measures the ops executed within it.
class OpCountScope {
 public:
  OpCountScope() : start_(op_counts()) {}
  OpCounts delta() const { return op_counts() - start_; }

 private:
  OpCounts start_;
};

}  // namespace dmw::num
