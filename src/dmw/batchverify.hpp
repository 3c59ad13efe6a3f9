// Random-linear-combination (small-exponent) batch verification for the
// Phase III commitment checks.
//
// Every Phase III check the agent performs has the shape
//     LHS_c == RHS_c            (both sides products in the Schnorr group),
// and the sequential scan evaluates each side check by check. Folding all
// checks of one task with random exponents r_c,
//     prod_c LHS_c^{r_c} == prod_c RHS_c^{r_c},
// turns n-1 peers' worth of checks into two long multi-exponentiations that
// share one squaring chain (and cross the Pippenger crossover as n grows).
// If every check holds the folded identity holds; if some check fails, the
// folded identity survives only when the adversary predicts the r_c — the
// failing factor prod_c (LHS_c/RHS_c)^{r_c} is a nontrivial power whose
// exponent is a nonzero linear form in the r_c, uniform over Z_q. Soundness
// error is therefore <= 2^-min(128, log2 q) per batch: the r_c are 128-bit
// values reduced mod q (so 2^-128 once q is large enough to keep all 128
// bits, 1/q ~ 2^-40 on the Group64 simulation tier). Caveat shared with the
// sequential path: elements are only range-validated on ingest (valid_elem),
// so cofactor components of small order d survive folding with probability
// 1/d — neither path validates subgroup membership, and the batch does not
// weaken what the sequential scan enforced.
//
// Determinism: callers seed the verifier with a dedicated per-(agent, task,
// stage) ChaCha stream (DmwAgent::rlc_rng) and fold checks in ascending
// peer order, so the r_c — and hence every Outcome byte — are identical no
// matter how many workers the parallel driver uses.
//
// Deviator identification: a failed batch says "some check in this task
// failed" but not which; callers re-run the task's original sequential scan
// to attribute the failure, so AbortReason records are byte-identical to
// the one-at-a-time ablation (see DESIGN.md "Batch verification").
//
// Vectorized tier: the two settling multi-exponentiations touch the lane
// engine (numeric/montlane.hpp) only where every slot does real work — the
// Straus table build and Pippenger's domain conversions group independent
// multiplications kLanes at a time whenever the group's SimdMode
// (PublicParams::set_simd) engages; the digit schedule and the bucket
// accumulation are scalar loops. The grouped steps perform the same counted
// multiplications, so verify() results, abort streams and OpCounts are
// bit-identical across SimdMode settings.
#pragma once

#include <span>
#include <vector>

#include "crypto/chacha.hpp"
#include "numeric/group.hpp"
#include "numeric/multiexp.hpp"

namespace dmw::proto {

/// One RLC coefficient: 128 random bits reduced into Z_q. Both backends
/// draw exactly two 64-bit words per coefficient, so transcripts of draws
/// depend only on the stream, never on the group size.
inline dmw::num::Group64::Scalar rlc_scalar(const dmw::num::Group64& g,
                                            crypto::ChaChaRng& rng) {
  const dmw::num::u64 hi = rng.next();
  const dmw::num::u64 lo = rng.next();
  const dmw::num::u128 v =
      (static_cast<dmw::num::u128>(hi) << 64) | static_cast<dmw::num::u128>(lo);
  return static_cast<dmw::num::u64>(v % g.q());
}

template <std::size_t W>
typename dmw::num::GroupBig<W>::Scalar rlc_scalar(
    const dmw::num::GroupBig<W>& g, crypto::ChaChaRng& rng) {
  auto v = dmw::num::BigUInt<W>::zero();
  const dmw::num::u64 hi = rng.next();
  const dmw::num::u64 lo = rng.next();
  v.set_limb(0, lo);
  if constexpr (W >= 2) v.set_limb(1, hi);
  return dmw::num::mod(v, g.q());
}

/// Accumulates the two sides of an RLC'd batch of checks and settles them
/// with one commitment and two multi-exponentiations. Usage per check c:
/// draw() one coefficient r_c, then fold LHS_c and RHS_c weighted by r_c
/// via fold_commit / lhs_term / rhs_term; finally verify().
///
/// fold_commit exploits that most LHS are Pedersen commitments over the
/// shared (z1, z2) basis: prod_c commit(a_c, b_c)^{r_c} ==
/// commit(sum_c r_c a_c, sum_c r_c b_c), so the whole commitment side of a
/// batch costs ONE fixed-base commitment regardless of the check count.
template <dmw::num::GroupBackend G>
class BatchVerifier {
 public:
  using Elem = typename G::Elem;
  using Scalar = typename G::Scalar;

  BatchVerifier(const G& g, crypto::ChaChaRng rng)
      : g_(&g), rng_(std::move(rng)), acc_a_(g.szero()), acc_b_(g.szero()) {}

  /// The next check's RLC coefficient (two ChaCha words, reduced mod q).
  Scalar draw() {
    ++checks_;
    return rlc_scalar(*g_, rng_);
  }

  /// Fold commit(a, b) = z1^a z2^b weighted by r into the left side.
  void fold_commit(const Scalar& r, const Scalar& a, const Scalar& b) {
    acc_a_ = g_->sadd(acc_a_, g_->smul(r, a));
    acc_b_ = g_->sadd(acc_b_, g_->smul(r, b));
    has_commit_ = true;
  }

  /// Fold base^exponent into the left / right side product.
  void lhs_term(const Elem& base, const Scalar& exponent) {
    lhs_bases_.push_back(base);
    lhs_exps_.push_back(exponent);
  }
  void rhs_term(const Elem& base, const Scalar& exponent) {
    rhs_bases_.push_back(base);
    rhs_exps_.push_back(exponent);
  }

  /// Number of draw() calls so far (== checks folded in).
  std::size_t checks() const { return checks_; }

  /// Settle the batch. True iff the folded identity holds; a true batch of
  /// all-honest checks always verifies (the fold is exact, nothing
  /// probabilistic on the honest path).
  bool verify() const {
    Elem lhs = has_commit_ ? g_->commit(acc_a_, acc_b_) : g_->identity();
    if (!lhs_bases_.empty()) {
      lhs = g_->mul(
          lhs, dmw::num::multi_pow<G>(
                   *g_, std::span<const Elem>(lhs_bases_),
                   std::span<const Scalar>(lhs_exps_)));
    }
    const Elem rhs =
        rhs_bases_.empty()
            ? g_->identity()
            : dmw::num::multi_pow<G>(*g_, std::span<const Elem>(rhs_bases_),
                                     std::span<const Scalar>(rhs_exps_));
    return lhs == rhs;
  }

 private:
  const G* g_;
  crypto::ChaChaRng rng_;
  std::size_t checks_ = 0;
  bool has_commit_ = false;
  Scalar acc_a_, acc_b_;
  std::vector<Elem> lhs_bases_, rhs_bases_;
  std::vector<Scalar> lhs_exps_, rhs_exps_;
};

}  // namespace dmw::proto
