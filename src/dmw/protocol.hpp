// The DMW protocol runner.
//
// Drives n agents through the four phases of §3 in lockstep rounds over a
// SimNetwork, implements the payment infrastructure's agreement rule, and
// assembles the final Outcome (schedule, payments, per-phase traffic, abort
// record). One runner executes the auctions for all m tasks in parallel,
// exactly as the paper prescribes ("a set of parallel and independent
// distributed Vickrey auctions").
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmw/agent.hpp"
#include "dmw/payment.hpp"
#include "mech/schedule.hpp"
#include "numeric/opcount.hpp"
#include "support/trace.hpp"

namespace dmw::proto {

/// Phase labels for the traffic breakdown (Fig. 2 reproduction).
enum class Phase : std::size_t {
  kBidding = 0,          // II: shares + commitments
  kLambdaPsi = 1,        // III.1-III.2
  kWinner = 2,           // III.3
  kSecondPrice = 3,      // III.4
  kPayments = 4,         // IV
  kCount = 5,
};

const char* to_string(Phase phase);

struct PhaseTraffic {
  net::TrafficStats stats;
  double seconds = 0.0;
  dmw::num::OpCounts ops;
};

struct Outcome {
  bool aborted = false;
  std::optional<AbortMsg> abort_record;
  std::size_t aborting_agent = 0;

  mech::Schedule schedule;                 ///< valid iff !aborted
  std::vector<std::uint64_t> payments;     ///< P_i; zeros when aborted
  std::vector<mech::Cost> first_prices;    ///< per task
  std::vector<mech::Cost> second_prices;   ///< per task
  std::vector<mech::Cost> winning_bids() const { return first_prices; }

  net::TrafficStats traffic;               ///< whole-run totals
  std::array<PhaseTraffic, static_cast<std::size_t>(Phase::kCount)> phases;
  /// Communication-ledger rows (SimNetwork::comm_rows()): every message
  /// attributed to its (phase, round, kind, sender) cell. Populated only
  /// when the run was traced (the ledger records iff trace::on()).
  std::vector<net::CommRow> comm;
  std::uint64_t rounds = 0;
  bool transcripts_consistent = true;      ///< all agents saw one broadcast

  /// U_i = P_i - sum of true costs of assigned tasks; 0 on abort.
  std::int64_t utility(const mech::SchedulingInstance& instance,
                       std::size_t agent) const {
    if (aborted) return 0;
    return mech::utility(instance, schedule, agent, payments[agent]);
  }
};

/// Per-run configuration.
struct RunConfig {
  std::uint64_t secret_seed = 0x5eed;  ///< base seed for agent secrets
  /// Seal Phase II shares with DH-derived AEAD keys (paper II.2 "securely
  /// transmits"). Disable to model physically private channels.
  bool encrypt_channels = true;
};

// ---- Pieces shared by the sequential and task-parallel drivers -------------

/// Construct the n agents with their derived secret seeds.
template <dmw::num::GroupBackend G>
std::vector<std::unique_ptr<DmwAgent<G>>> make_dmw_agents(
    const PublicParams<G>& params, const mech::SchedulingInstance& instance,
    const std::vector<Strategy<G>*>& strategies, const RunConfig& config) {
  DMW_REQUIRE(instance.n == params.n());
  DMW_REQUIRE(instance.m == params.m());
  DMW_REQUIRE(strategies.size() == params.n());
  instance.validate();
  std::vector<std::unique_ptr<DmwAgent<G>>> agents;
  agents.reserve(params.n());
  for (std::size_t i = 0; i < params.n(); ++i) {
    DMW_REQUIRE(strategies[i] != nullptr);
    agents.push_back(std::make_unique<DmwAgent<G>>(
        params, i, instance.cost[i], *strategies[i],
        config.secret_seed + 0x9e3779b97f4a7c15ULL * (i + 1),
        config.encrypt_channels));
  }
  return agents;
}

inline void accumulate_traffic(net::TrafficStats& bucket,
                               const net::TrafficStats& now,
                               const net::TrafficStats& before) {
  bucket.unicast_messages += now.unicast_messages - before.unicast_messages;
  bucket.unicast_bytes += now.unicast_bytes - before.unicast_bytes;
  bucket.broadcast_messages +=
      now.broadcast_messages - before.broadcast_messages;
  bucket.broadcast_bytes += now.broadcast_bytes - before.broadcast_bytes;
  bucket.p2p_equivalent_messages +=
      now.p2p_equivalent_messages - before.p2p_equivalent_messages;
  bucket.p2p_equivalent_bytes +=
      now.p2p_equivalent_bytes - before.p2p_equivalent_bytes;
}

/// An abort by any agent terminates the protocol for everyone; the lowest
/// aborted agent id is recorded (= the first one the sequential scan saw).
template <dmw::num::GroupBackend G>
void note_aborts(const std::vector<std::unique_ptr<DmwAgent<G>>>& agents,
                 Outcome& outcome) {
  for (const auto& agent : agents) {
    if (agent->aborted() && !outcome.aborted) {
      outcome.aborted = true;
      outcome.abort_record = agent->abort_record();
      outcome.aborting_agent = agent->id();
    }
  }
}

/// Post-run settlement + outcome assembly (identical for both drivers):
/// decode payment claims, settle by quorum agreement, read the schedule and
/// prices off the first complete agent, audit transcript consistency.
template <dmw::num::GroupBackend G>
void finalize_outcome(const PublicParams<G>& params, net::SimNetwork& net,
                      PaymentInfrastructure& infra,
                      const std::vector<std::unique_ptr<DmwAgent<G>>>& agents,
                      Outcome& outcome) {
  DMW_SPAN("run/finalize");
  outcome.traffic = net.stats();
  outcome.comm = net.comm_rows();
  if (outcome.aborted) return;

  // Payment settlement (Phase IV): decode the published claims.
  std::size_t cursor = 0;
  for (const auto& posting : net.read_bulletin(cursor)) {
    if (posting.kind != static_cast<std::uint32_t>(MsgKind::kPaymentClaim))
      continue;
    try {
      auto msg = PaymentClaimMsg::decode(posting.payload);
      if (msg.payments.size() != params.n()) continue;
      infra.submit(posting.from, std::move(msg.payments));
    } catch (const net::DecodeError&) {
      // Malformed claim: simply never reaches agreement.
    }
  }
  const auto settled = infra.settle(params.quorum());
  if (!settled) {
    outcome.aborted = true;
    outcome.abort_record = AbortMsg{0, AbortReason::kPaymentDisagreement};
    return;
  }
  outcome.payments = *settled;

  // Assemble the schedule from the first agent that resolved every task
  // (in an all-honest run that is agent 0; with deviants or crashed
  // agents it is the first live honest agent — all of them agree).
  const DmwAgent<G>* reference_agent = nullptr;
  for (const auto& agent : agents) {
    bool complete = !agent->aborted();
    for (std::size_t j = 0; complete && j < params.m(); ++j) {
      const auto& view = agent->task_view(j);
      complete = view.winner && view.first_price && view.second_price;
    }
    if (complete) {
      reference_agent = agent.get();
      break;
    }
  }
  if (reference_agent == nullptr) {
    outcome.aborted = true;
    outcome.abort_record = AbortMsg{0, AbortReason::kQuorumLost};
    return;
  }
  std::vector<std::size_t> task_to_agent(params.m());
  outcome.first_prices.resize(params.m());
  outcome.second_prices.resize(params.m());
  for (std::size_t j = 0; j < params.m(); ++j) {
    const auto& view = reference_agent->task_view(j);
    task_to_agent[j] = *view.winner;
    outcome.first_prices[j] = *view.first_price;
    outcome.second_prices[j] = *view.second_price;
  }
  outcome.schedule = mech::Schedule(std::move(task_to_agent));

  // Broadcast-consistency audit: all transcripts must agree.
  const auto reference = agents[0]->transcript().digest();
  for (const auto& agent : agents) {
    if (agent->transcript().digest() != reference) {
      outcome.transcripts_consistent = false;
      break;
    }
  }
}

template <dmw::num::GroupBackend G>
class ProtocolRunner {
 public:
  /// `strategies[i]` controls agent i; entries may be shared. The instance
  /// provides the agents' true types (used by honest agents as their bids).
  ProtocolRunner(const PublicParams<G>& params,
                 const mech::SchedulingInstance& instance,
                 std::vector<Strategy<G>*> strategies,
                 RunConfig config = RunConfig{})
      : params_(params),
        instance_(instance),
        net_(params.n()),
        infra_(params.n()),
        agents_(make_dmw_agents(params, instance, strategies, config)) {
    if (params.tracing()) trace::Tracer::instance().set_enabled(true);
  }

  net::SimNetwork& network() { return net_; }

  Outcome run() {
    Outcome outcome;
    outcome.payments.assign(params_.n(), 0);

    // Channel setup: DH key publication for the private channels.
    step(Phase::kBidding, outcome,
         [&](DmwAgent<G>& agent) { agent.phase0_publish_key(net_); });

    // Phase II: bidding (II.1-II.3) + implicit synchronization (II.4).
    step(Phase::kBidding, outcome,
         [&](DmwAgent<G>& agent) { agent.phase2_bid_and_send(net_); });

    // Phase III.1 + III.2.
    step(Phase::kLambdaPsi, outcome, [&](DmwAgent<G>& agent) {
      agent.phase3_collect_and_verify(net_);
      agent.phase3_publish_lambda_psi(net_);
    });
    step(Phase::kLambdaPsi, outcome, [&](DmwAgent<G>& agent) {
      agent.phase3_verify_and_resolve_first_price(net_);
    });

    // Phase III.3.
    step(Phase::kWinner, outcome,
         [&](DmwAgent<G>& agent) { agent.phase3_disclose(net_); });
    step(Phase::kWinner, outcome,
         [&](DmwAgent<G>& agent) { agent.phase3_identify_winner(net_); });

    // Phase III.4.
    step(Phase::kSecondPrice, outcome,
         [&](DmwAgent<G>& agent) { agent.phase3_publish_reduced(net_); });
    step(Phase::kSecondPrice, outcome,
         [&](DmwAgent<G>& agent) { agent.phase3_resolve_second_price(net_); });

    // Phase IV.
    step(Phase::kPayments, outcome,
         [&](DmwAgent<G>& agent) { agent.phase4_submit_payment_claim(net_); });

    finalize(outcome);
    return outcome;
  }

  /// Read-only access to agents (experiments inspect their views).
  const DmwAgent<G>& agent(std::size_t i) const { return *agents_[i]; }

 private:
  template <class Fn>
  void step(Phase phase, Outcome& outcome, Fn&& fn) {
    if (outcome.aborted) return;
    net_.set_comm_phase(static_cast<std::uint32_t>(phase), to_string(phase));
    const auto traffic_before = net_.stats();
    dmw::num::OpCountScope ops;
    trace::Span span(to_string(phase));
    const std::int64_t step_begin_ns = trace::Tracer::instance().now_ns();

    for (auto& agent : agents_) fn(*agent);
    net_.advance_round();
    ++outcome.rounds;
    // Implicit synchronization (paper II.4): wait out injected delivery
    // delays so slow links cost rounds, not spurious aborts. The bound is a
    // safety net against a pathological injector.
    for (int wait = 0; net_.in_flight() > 0 && wait < 1024; ++wait) {
      net_.advance_round();
      ++outcome.rounds;
    }

    auto& bucket = outcome.phases[static_cast<std::size_t>(phase)];
    bucket.seconds +=
        static_cast<double>(trace::Tracer::instance().now_ns() -
                            step_begin_ns) *
        1e-9;
    bucket.ops += ops.delta();
    accumulate_traffic(bucket.stats, net_.stats(), traffic_before);

    note_aborts(agents_, outcome);
  }

  void finalize(Outcome& outcome) {
    finalize_outcome(params_, net_, infra_, agents_, outcome);
  }

  const PublicParams<G>& params_;
  const mech::SchedulingInstance& instance_;
  net::SimNetwork net_;
  PaymentInfrastructure infra_;
  std::vector<std::unique_ptr<DmwAgent<G>>> agents_;
};

/// Assemble the machine-readable RunReport for a finished run: the
/// Outcome's per-phase wall-time/ops/traffic table plus the tracer's span
/// aggregates and the metrics-registry snapshots (trace::collect_into).
/// Call on the driver thread, after run(), while the tracer state of the
/// run is still live (before the next reset()). Under ClockMode::kLogical
/// the returned report serializes bit-identically at any thread count and
/// for either driver's phase table.
template <dmw::num::GroupBackend G>
trace::RunReport make_run_report(const PublicParams<G>& params,
                                 const Outcome& outcome) {
  trace::RunReport report;
  report.label = params.describe();
  report.n = params.n();
  report.m = params.m();
  report.c = params.c();
  report.aborted = outcome.aborted;
  if (outcome.aborted && outcome.abort_record)
    report.abort_reason = to_string(outcome.abort_record->reason);
  report.rounds = outcome.rounds;
  for (std::size_t i = 0; i < outcome.phases.size(); ++i) {
    const PhaseTraffic& bucket = outcome.phases[i];
    trace::RunReport::PhaseRow row;
    row.name = to_string(static_cast<Phase>(i));
    // seconds round-trips through double; exact for the logical clock's
    // small tick counts, which is what the determinism gate relies on.
    row.wall_ns = std::llround(bucket.seconds * 1e9);
    row.ops = bucket.ops;
    row.unicasts = bucket.stats.unicast_messages;
    row.broadcasts = bucket.stats.broadcast_messages;
    row.p2p_messages = bucket.stats.p2p_equivalent_messages;
    row.p2p_bytes = bucket.stats.p2p_equivalent_bytes;
    report.phases.push_back(std::move(row));
  }
  for (const net::CommRow& row : outcome.comm) {
    trace::RunReport::CommRow out;
    out.phase = row.phase_label;
    out.round = row.key.round;
    out.kind = row.kind_name;
    out.sender = row.key.sender;
    out.messages = row.counts.messages;
    out.wire_bytes = row.counts.wire_bytes;
    out.p2p_messages = row.counts.p2p_messages;
    out.p2p_bytes = row.counts.p2p_bytes;
    report.comm.push_back(std::move(out));
  }
  trace::collect_into(report);
  return report;
}

/// Convenience: run DMW with every agent honest.
template <dmw::num::GroupBackend G>
Outcome run_honest_dmw(const PublicParams<G>& params,
                       const mech::SchedulingInstance& instance,
                       RunConfig config = RunConfig{}) {
  HonestStrategy<G> honest;
  std::vector<Strategy<G>*> strategies(params.n(), &honest);
  ProtocolRunner<G> runner(params, instance, std::move(strategies), config);
  return runner.run();
}

}  // namespace dmw::proto
