// MontLane: L independent same-modulus Montgomery operations per step.
//
// The protocol's hot paths batch many independent exponentiations and
// domain multiplications over one modulus (share-verify Eqs. (7)-(9), the
// RLC fold of batchverify.hpp, Phase II commitment vectors). MontLane turns
// such a batch into lane groups: one group step performs L multiplications
// through the simd.hpp kernels (AVX2/NEON when the host has them, the
// portable kernel otherwise), or — when lane grouping is disabled — the
// exact historical scalar sequence. Both paths are the same integer
// arithmetic, so results are bit-identical by construction.
//
// Op-accounting contract (opcount.hpp): every lane-slot that performs a
// modular multiplication credits one `mul`, masked-off and padding slots
// credit nothing, and `pow_lanes` credits one `pow` per element — the
// grouped engine therefore reports *exactly* the OpCounts of its scalar
// ablation, which is what keeps RunReports bit-identical across
// PublicParams::set_simd(on/off). The per-thread simd::lane_ops() counter
// (vector dispatches, not algorithm work) is the only observable
// difference, and it is deliberately outside OpCounts.
//
// `pow_lanes` advances L *independent* LSB-first ladders in shared
// bit-index rounds: within a round each lane runs exactly its own ladder's
// product/square steps, so the executed multiset equals the counted one,
// and the interleaving overlaps L dependent REDC chains in the multiplier
// pipeline (the speedup source — a lone ladder is latency-bound). Its
// scalar ablation is the same per-lane ladder (the Group64 tier's own pow
// path for protocol exponents — pow_mont64 below kPow64WindowMinBits), so
// lane-vs-scalar comparisons are algorithm-identical, not
// algorithm-vs-algorithm. The masked lockstep alternative — all lanes
// stepping through the vector kernels together — executes ~4/3 more
// multiplications (a group product retires when ANY lane has the bit) and
// loses on hosts whose vector unit lacks a 64x64 multiplier; the kernels
// earn their keep on the always-dense paths below instead.
//
// Two specializations cover both arithmetic tiers:
//   MontLane<Mont64, L>        — u64 lanes, vector kernels when L == 4.
//   MontLane<Montgomery<W>, L> — multi-limb CIOS over an interleaved limb
//     layout t[limb][lane]: the lane index is the fastest-moving dimension,
//     so the per-limb inner loops are stride-1 over independent work (ILP /
//     auto-vectorizable); there is no hand-written vector kernel for this
//     tier, the interleaving itself is the optimization.
#pragma once

#include <array>
#include <cstddef>

#include "numeric/expwin.hpp"
#include "numeric/mont.hpp"
#include "numeric/simd.hpp"

namespace dmw::num {

template <class Ctx, std::size_t L = simd::kLanes>
class MontLane;

/// 64-bit tier: L lanes of Mont64 arithmetic.
template <std::size_t L>
class MontLane<Mont64, L> {
  static_assert(L >= 1 && L <= 64);

 public:
  using Dom = u64;
  static constexpr std::size_t kLanes = L;

  /// `grouped` selects the engine: true = lane groups through the simd.hpp
  /// kernels, false = the scalar ablation (identical values and OpCounts).
  MontLane(const Mont64& m, bool grouped) : m_(&m), grouped_(grouped) {}

  bool grouped() const { return grouped_; }

  /// out[i] = a[i] * b[i] (Montgomery domain), one counted mul each.
  void mul_lanes(const Dom* a, const Dom* b, Dom* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->mul(a[i], b[i]);
      return;
    }
    op_counts().mul += n;
    std::size_t i = 0;
    for (; i + L <= n; i += L) group_mul(a + i, b + i, out + i);
    if (i < n) {
      Dom pa[L] = {}, pb[L] = {}, po[L];
      for (std::size_t j = i; j < n; ++j) {
        pa[j - i] = a[j];
        pb[j - i] = b[j];
      }
      group_mul(pa, pb, po);
      for (std::size_t j = i; j < n; ++j) out[j] = po[j - i];
    }
  }

  /// One group: acc[l] *= b[l] where active[l]; inactive slots untouched
  /// and uncounted. Arrays are L-sized; every slot must hold a value < n
  /// (or < 2^64 with the partner < n) so padded lanes stay in kernel range.
  void mul_masked(Dom* acc, const Dom* b, const bool* active) const {
    std::size_t live = 0;
    for (std::size_t l = 0; l < L; ++l) live += active[l] ? 1 : 0;
    if (live == 0) return;
    op_counts().mul += live;
    if (!grouped_) {
      for (std::size_t l = 0; l < L; ++l)
        if (active[l])
          acc[l] = simd::mont_mul_scalar(acc[l], b[l], m_->modulus(),
                                         m_->ninv());
      return;
    }
    Dom prod[L];
    group_mul(acc, b, prod);
    for (std::size_t l = 0; l < L; ++l)
      if (active[l]) acc[l] = prod[l];
  }

  /// out[i] = x[i] * R mod n (domain entry), one counted mul each.
  void to_mont_lanes(const u64* x, Dom* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->to_mont(x[i]);
      return;
    }
    Dom r2[L];
    for (std::size_t l = 0; l < L; ++l) r2[l] = m_->r2();
    op_counts().mul += n;
    for (std::size_t i = 0; i < n; i += L) {
      Dom px[L] = {}, po[L];
      const std::size_t cnt = n - i < L ? n - i : L;
      for (std::size_t j = 0; j < cnt; ++j) px[j] = x[i + j];
      group_mul(px, r2, po);
      for (std::size_t j = 0; j < cnt; ++j) out[i + j] = po[j];
    }
  }

  /// out[i] = x[i] * R^{-1} mod n (domain exit), one counted mul each.
  void from_mont_lanes(const Dom* x, u64* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->from_mont(x[i]);
      return;
    }
    Dom one[L];
    for (std::size_t l = 0; l < L; ++l) one[l] = 1;
    op_counts().mul += n;
    for (std::size_t i = 0; i < n; i += L) {
      Dom px[L] = {}, po[L];
      const std::size_t cnt = n - i < L ? n - i : L;
      for (std::size_t j = 0; j < cnt; ++j) px[j] = x[i + j];
      group_mul(px, one, po);
      for (std::size_t j = 0; j < cnt; ++j) out[i + j] = po[j];
    }
  }

  /// out[i] = base[i]^{e[i]} mod n, normal form in and out, by L
  /// round-interleaved independent LSB-first ladders. Per element: one
  /// `pow`; for e != 0 exactly 1 (to_mont) + (bits-1) squarings +
  /// (popcount-1) products + 1 (from_mont) counted muls — the same as the
  /// scalar ladder, grouped or not. e == 0 yields 1 with no muls.
  template <class S>
  void pow_lanes(const u64* base, const S* e, u64* out, std::size_t n) const {
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t cnt = n - i < L ? n - i : L;
      pow_group(base + i, e + i, out + i, cnt);
    }
  }

 private:
  void group_mul(const Dom* a, const Dom* b, Dom* out) const {
    if constexpr (L == simd::kLanes) {
      simd::mont_mul_lanes(a, b, m_->modulus(), m_->ninv(), out);
    } else {
      ++simd::lane_ops();
      for (std::size_t l = 0; l < L; ++l)
        out[l] = simd::mont_mul_scalar(a[l], b[l], m_->modulus(), m_->ninv());
    }
  }

  template <class S>
  void pow_group(const u64* base, const S* e, u64* out,
                 std::size_t cnt) const {
    // One op_counts() reference for the whole group: the ladder below
    // credits up to 2L muls per round through it instead of re-resolving
    // the thread_local per credit. The batched total is exactly the
    // per-increment total.
    OpCounts& oc = op_counts();
    oc.pow += cnt;
    if (!grouped_) {
      for (std::size_t l = 0; l < cnt; ++l) out[l] = ladder_one(base[l], e[l]);
      return;
    }
    unsigned bits[L] = {};
    unsigned max_bits = 0;
    u64 live = 0;
    for (std::size_t l = 0; l < cnt; ++l) {
      bits[l] = exp_bit_length(e[l]);
      live += bits[l] != 0;
      if (bits[l] > max_bits) max_bits = bits[l];
    }
    if (live == 0) {
      for (std::size_t l = 0; l < cnt; ++l) out[l] = 1;
      return;
    }
    // L independent ladders in shared bit-index rounds (header rationale):
    // each lane performs exactly its own ladder's REDC multiplications —
    // the multiset ladder_one executes, hence the same counted muls — and
    // the interleaving overlaps L dependent chains in the pipeline.
    const u64 n = m_->modulus();
    const u64 ninv = m_->ninv();
    const u64 r2 = m_->r2();
    u64 b[L] = {}, r[L] = {};
    bool started[L] = {};
    u64 counted = 2 * live;  // to_mont + from_mont per live lane
    for (std::size_t l = 0; l < cnt; ++l)
      if (bits[l] != 0) b[l] = simd::mont_mul_scalar(base[l], r2, n, ninv);
    for (unsigned i = 0; i < max_bits; ++i) {
      for (std::size_t l = 0; l < cnt; ++l) {
        if (i >= bits[l]) continue;
        if (exp_bit(e[l], i)) {
          if (started[l]) {
            r[l] = simd::mont_mul_scalar(r[l], b[l], n, ninv);
            ++counted;
          } else {
            r[l] = b[l];
            started[l] = true;
          }
        }
        if (i + 1 < bits[l]) {
          b[l] = simd::mont_mul_scalar(b[l], b[l], n, ninv);
          ++counted;
        }
      }
    }
    oc.mul += counted;
    for (std::size_t l = 0; l < cnt; ++l)
      out[l] = bits[l] == 0 ? 1 : simd::mont_mul_scalar(r[l], 1, n, ninv);
  }

  /// Scalar ablation of one lane: the LSB-first ladder of pow_mont64 with
  /// the ladder kept for every exponent width (the lane engine has no
  /// windowed branch, and the ablation must count exactly like it).
  template <class S>
  u64 ladder_one(u64 a, const S& e) const {
    if (exp_bit_length(e) == 0) return 1;
    u64 b = m_->to_mont(a);
    u64 r = 0;
    bool started = false;
    const unsigned bits = exp_bit_length(e);
    for (unsigned i = 0;; ++i) {
      if (exp_bit(e, i)) {
        r = started ? m_->mul(r, b) : b;
        started = true;
      }
      if (i + 1 >= bits) break;
      b = m_->mul(b, b);
    }
    return m_->from_mont(r);
  }

  const Mont64* m_;
  bool grouped_;
};

/// Multi-limb tier: L lanes of Montgomery<W> arithmetic over an interleaved
/// limb layout (limb-major, lane fastest-moving).
template <std::size_t W, std::size_t L>
class MontLane<Montgomery<W>, L> {
  static_assert(L >= 1 && L <= 64);

 public:
  using Dom = BigUInt<W>;
  static constexpr std::size_t kLanes = L;
  /// One lane group: limbs[j][l] = limb j of lane l.
  using Lanes = std::array<std::array<u64, L>, W>;

  MontLane(const Montgomery<W>& m, bool grouped) : m_(&m), grouped_(grouped) {}

  bool grouped() const { return grouped_; }

  void mul_lanes(const Dom* a, const Dom* b, Dom* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->mul(a[i], b[i]);
      return;
    }
    op_counts().mul += n;
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t cnt = n - i < L ? n - i : L;
      Lanes la, lb, lo;
      load(a + i, cnt, la);
      load(b + i, cnt, lb);
      group_mul(la, lb, lo);
      store(lo, out + i, cnt);
    }
  }

  void mul_masked(Dom* acc, const Dom* b, const bool* active) const {
    std::size_t live = 0;
    for (std::size_t l = 0; l < L; ++l) live += active[l] ? 1 : 0;
    if (live == 0) return;
    op_counts().mul += live;
    if (!grouped_) {
      for (std::size_t l = 0; l < L; ++l)
        if (active[l]) acc[l] = redc_mul_one(acc[l], b[l]);
      return;
    }
    Lanes la, lb, lo;
    load(acc, L, la);
    load(b, L, lb);
    group_mul(la, lb, lo);
    for (std::size_t l = 0; l < L; ++l)
      if (active[l]) acc[l] = extract(lo, l);
  }

  void to_mont_lanes(const Dom* x, Dom* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->to_mont(x[i]);
      return;
    }
    op_counts().mul += n;
    Lanes r2;
    broadcast(m_->r2(), r2);
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t cnt = n - i < L ? n - i : L;
      Lanes lx, lo;
      load(x + i, cnt, lx);
      group_mul(lx, r2, lo);
      store(lo, out + i, cnt);
    }
  }

  void from_mont_lanes(const Dom* x, Dom* out, std::size_t n) const {
    if (!grouped_) {
      for (std::size_t i = 0; i < n; ++i) out[i] = m_->from_mont(x[i]);
      return;
    }
    op_counts().mul += n;
    Lanes one;
    broadcast(Dom::one(), one);
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t cnt = n - i < L ? n - i : L;
      Lanes lx, lo;
      load(x + i, cnt, lx);
      group_mul(lx, one, lo);
      store(lo, out + i, cnt);
    }
  }

  /// Round-interleaved independent ladders, same contract and accounting
  /// as the Mont64 specialization (see above). Note the *scalar*
  /// Montgomery<W>::pow is sliding-window — the ladder here is pow_lanes'
  /// own algorithm, and its grouped/ungrouped paths count identically
  /// against each other.
  template <class S>
  void pow_lanes(const Dom* base, const S* e, Dom* out, std::size_t n) const {
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t cnt = n - i < L ? n - i : L;
      pow_group(base + i, e + i, out + i, cnt);
    }
  }

 private:
  static void load(const Dom* x, std::size_t cnt, Lanes& out) {
    for (std::size_t j = 0; j < W; ++j)
      for (std::size_t l = 0; l < L; ++l)
        out[j][l] = l < cnt ? x[l].limb(j) : 0;
  }

  static void broadcast(const Dom& x, Lanes& out) {
    for (std::size_t j = 0; j < W; ++j)
      for (std::size_t l = 0; l < L; ++l) out[j][l] = x.limb(j);
  }

  static Dom extract(const Lanes& x, std::size_t lane) {
    Dom out;
    for (std::size_t j = 0; j < W; ++j) out.set_limb(j, x[j][lane]);
    return out;
  }

  static void store(const Lanes& x, Dom* out, std::size_t cnt) {
    for (std::size_t l = 0; l < cnt; ++l) out[l] = extract(x, l);
  }

  /// Interleaved CIOS: the redc_mul of Montgomery<W> with a lane dimension
  /// added as the innermost stride-1 loop. Exact same per-lane arithmetic.
  void group_mul(const Lanes& a, const Lanes& b, Lanes& out) const {
    ++simd::lane_ops();
    const Dom& n = m_->modulus();
    const u64 ninv = m_->ninv();
    std::array<std::array<u64, L>, W + 2> t{};
    std::array<u64, L> carry;
    std::array<u64, L> m;
    for (std::size_t i = 0; i < W; ++i) {
      carry.fill(0);
      for (std::size_t j = 0; j < W; ++j) {
        for (std::size_t l = 0; l < L; ++l) {
          const u128 cur =
              static_cast<u128>(a[i][l]) * b[j][l] + t[j][l] + carry[l];
          t[j][l] = static_cast<u64>(cur);
          carry[l] = static_cast<u64>(cur >> 64);
        }
      }
      for (std::size_t l = 0; l < L; ++l) {
        const u128 cur = static_cast<u128>(t[W][l]) + carry[l];
        t[W][l] = static_cast<u64>(cur);
        t[W + 1][l] += static_cast<u64>(cur >> 64);
      }
      for (std::size_t l = 0; l < L; ++l) m[l] = t[0][l] * ninv;
      for (std::size_t l = 0; l < L; ++l) {
        const u128 first = static_cast<u128>(m[l]) * n.limb(0) + t[0][l];
        carry[l] = static_cast<u64>(first >> 64);
      }
      for (std::size_t j = 1; j < W; ++j) {
        for (std::size_t l = 0; l < L; ++l) {
          const u128 cur2 =
              static_cast<u128>(m[l]) * n.limb(j) + t[j][l] + carry[l];
          t[j - 1][l] = static_cast<u64>(cur2);
          carry[l] = static_cast<u64>(cur2 >> 64);
        }
      }
      for (std::size_t l = 0; l < L; ++l) {
        const u128 cur = static_cast<u128>(t[W][l]) + carry[l];
        t[W - 1][l] = static_cast<u64>(cur);
        t[W][l] = t[W + 1][l] + static_cast<u64>(cur >> 64);
        t[W + 1][l] = 0;
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      Dom r;
      for (std::size_t j = 0; j < W; ++j) r.set_limb(j, t[j][l]);
      if (t[W][l] != 0 || r >= n) r.sub_with_borrow(n);
      for (std::size_t j = 0; j < W; ++j) out[j][l] = r.limb(j);
    }
  }

  /// Uncounted single REDC multiplication (mul_masked's scalar path does
  /// its own slot accounting).
  Dom redc_mul_one(const Dom& a, const Dom& b) const {
    Lanes la, lb, lo;
    broadcast(a, la);
    broadcast(b, lb);
    const u64 saved = simd::lane_ops();
    group_mul(la, lb, lo);
    simd::lane_ops() = saved;  // broadcast trick, not a lane dispatch
    return extract(lo, 0);
  }

  template <class S>
  void pow_group(const Dom* base, const S* e, Dom* out,
                 std::size_t cnt) const {
    op_counts().pow += cnt;
    if (!grouped_) {
      for (std::size_t l = 0; l < cnt; ++l) out[l] = ladder_one(base[l], e[l]);
      return;
    }
    unsigned bits[L] = {};
    unsigned max_bits = 0;
    for (std::size_t l = 0; l < cnt; ++l) {
      bits[l] = exp_bit_length(e[l]);
      if (bits[l] > max_bits) max_bits = bits[l];
    }
    // Same round-interleaved independent ladders as the Mont64 tier, but
    // through the counted Montgomery<W> ops directly: each CIOS chain is
    // long enough that the accessor overhead is noise, and every lane
    // performs exactly ladder_one's multiset — identical counts for free.
    // The interleaved-CIOS group kernel stays on the table-build paths
    // (mul_lanes / to_mont_lanes), where every slot does real work.
    Dom b[L], r[L];
    bool started[L] = {};
    for (std::size_t l = 0; l < cnt; ++l)
      if (bits[l] != 0) b[l] = m_->to_mont(base[l]);
    for (unsigned i = 0; i < max_bits; ++i) {
      for (std::size_t l = 0; l < cnt; ++l) {
        if (i >= bits[l]) continue;
        if (exp_bit(e[l], i)) {
          if (started[l]) {
            r[l] = m_->mul(r[l], b[l]);
          } else {
            r[l] = b[l];
            started[l] = true;
          }
        }
        if (i + 1 < bits[l]) b[l] = m_->mul(b[l], b[l]);
      }
    }
    for (std::size_t l = 0; l < cnt; ++l)
      out[l] = bits[l] == 0 ? Dom::one() : m_->from_mont(r[l]);
  }

  template <class S>
  Dom ladder_one(const Dom& a, const S& e) const {
    const unsigned bits = exp_bit_length(e);
    if (bits == 0) return Dom::one();
    Dom b = m_->to_mont(a);
    Dom r;
    bool started = false;
    for (unsigned i = 0;; ++i) {
      if (exp_bit(e, i)) {
        r = started ? m_->mul(r, b) : b;
        started = true;
      }
      if (i + 1 >= bits) break;
      b = m_->mul(b, b);
    }
    return m_->from_mont(r);
  }

  const Montgomery<W>* m_;
  bool grouped_;
};

}  // namespace dmw::num
