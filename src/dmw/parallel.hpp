// Pipelined task-parallel DMW driver.
//
// The paper runs "a set of parallel and independent distributed Vickrey
// auctions" — one per task — and every per-task quantity (shares,
// commitments, Lambda/Psi, disclosures, prices) lives in its own TaskView.
// ParallelProtocol exploits exactly that independence. Execution is
// organized into *epochs*: the SimNetwork rounds, whose advance_round()
// calls are the only global barriers left (round structure is part of the
// Outcome identity, so an epoch genuinely cannot be crossed early). Inside
// an epoch, each agent advances through its stage chain independently:
//
//   ingest(i) -> { task slices (i, j-chunk) ... } -> commit(i) -> next stage
//
// with no cross-agent joins. The per-agent chains are driven by per-chain
// epoch counters (an atomic fan-out count per agent) instead of global pool
// barriers: a slow verification slice stalls only its own agent's chain, and
// idle workers steal slices from busy ones (support/thread_pool.hpp). Task
// work fans out in chunks of tasks per agent — n * ceil(m/chunk) stealable
// slices per stage — which is finer than task granularity and keeps all
// eight workers busy even when m < threads (the m=8 case): each Phase III
// BatchVerifier invocation is one independent (agent, task) job in that bag.
//
// Determinism contract (Outcomes, AbortReason streams and RunReports are
// bit-identical across thread counts, schedule modes and vs the sequential
// engine):
//
//   - Per-task randomness comes from ChaCha streams keyed by
//     (master seed, agent, task) — DmwAgent::task_rng — so sampled
//     polynomials never depend on worker count or execution order.
//   - Failed checks are recorded per task and committed at the agent's
//     stage boundary as one abort on the lowest failing task; the runner
//     then records the lowest aborted agent id at the epoch boundary. Both
//     match the sequential scan order, so abort records are bit-identical.
//   - Workers only write the TaskView slots of the slice they own,
//     per-worker traffic accumulators (SimNetwork::enable_concurrency) and
//     per-thread op counters; cross-agent data only moves through the
//     network, which delivers at epoch boundaries.
//   - Shared caches (PublicParams pseudonym-power tables, per-agent RNG
//     stream states, AEAD channel keys, group fixed-base tables) are built
//     once before the fan-out and are immutable afterwards; workers only
//     read them.
//
// Under RunConfig::deterministic_schedule the engine degrades to the
// legacy lockstep interpreter (static contiguous shards + a pool barrier
// per stage), pinning the execution interleaving itself; results are
// identical either way, which the bit-identity soak in
// tests/test_parallel_protocol.cpp pins across {1,2,4,8} threads x
// {honest, deviant, crash} x both schedule modes.
//
// The bulletin may interleave *postings within a round* differently from
// the sequential runner, but every Outcome field is a function of
// per-sender keyed state, never of posting order.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dmw/protocol.hpp"
#include "support/annotations.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace dmw::proto {

/// Drop-in parallel equivalent of ProtocolRunner: same constructor shape
/// plus a thread count (0 = one worker per hardware thread, logged at Info).
/// Produces bit-identical Outcomes at any thread count.
///
/// Strategies must be reentrant: with per-(agent, task-chunk) slices stolen
/// across workers, the per-task hooks (edit_share, edit_lambda_psi, ...) of
/// one strategy object run concurrently for different tasks (and choose_bids
/// concurrently for different agents when an instance is shared). Every
/// strategy in dmw/strategies.hpp is read-only after construction and
/// qualifies.
template <dmw::num::GroupBackend G>
class ParallelProtocol {
 public:
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies, std::size_t threads,
                   RunConfig config = RunConfig{})
      : ParallelProtocol(
            params, instance, std::move(strategies),
            std::make_unique<ThreadPool>(
                threads == 0 ? ThreadPool::default_thread_count() : threads,
                config.deterministic_schedule),
            /*borrowed=*/nullptr, config) {
    if (threads == 0) {
      DMW_INFO() << "--threads 0 resolved to " << pool_->size()
                 << " workers (std::thread::hardware_concurrency)";
    }
  }

  /// Server-mode hook: borrow a caller-owned pool instead of spawning one.
  /// A stream of auctions (tools/dmw_serve) then reuses a single warmed set
  /// of workers across requests — thread creation and teardown leave the
  /// per-auction path entirely. The pool must be quiescent for the duration
  /// of run() (the engine is its only client between drain barriers), and
  /// the pool's scheduling discipline must match config.deterministic_schedule
  /// — the pool's discipline is what actually executes.
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies, ThreadPool& pool,
                   RunConfig config = RunConfig{})
      : ParallelProtocol(params, instance, std::move(strategies),
                         /*owned=*/nullptr, &pool, config) {
    DMW_REQUIRE_MSG(
        pool.deterministic_schedule() == config.deterministic_schedule,
        "ParallelProtocol: borrowed pool discipline disagrees with RunConfig");
  }

  std::size_t threads() const { return pool_->size(); }
  bool deterministic_schedule() const {
    return pool_->deterministic_schedule();
  }
  net::SimNetwork& network() { return net_; }
  const DmwAgent<G>& agent(std::size_t i) const { return *agents_[i]; }

  Outcome run() {
    assert_driver();
    Outcome outcome;
    outcome.payments.assign(params_.n(), 0);

    using Agent = DmwAgent<G>;

    // Channel setup: DH key publication for the private channels.
    run_epoch(Phase::kBidding, outcome,
              {Stage{[this](Agent& a) { a.phase0_publish_key(net_); }, nullptr,
                     false}});

    // Phase II: bidding (II.1-II.3) + implicit synchronization (II.4). An
    // agent starts sealing and sending shares the moment its own key
    // derivation is done; it does not wait for its peers'.
    run_epoch(Phase::kBidding, outcome,
              {Stage{[this](Agent& a) { a.phase2_prepare(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase2_send_task(net_, j);
                     },
                     false}});

    // Phase III.1 + III.2: verification fans out per (agent, task) — the
    // BatchVerifier multi-exps are the dominant independent jobs — then each
    // agent commits its own deferred failures and pipelines straight into
    // Lambda/Psi aggregation without waiting for other agents to finish
    // verifying.
    run_epoch(Phase::kLambdaPsi, outcome,
              {Stage{[this](Agent& a) { a.phase3_ingest(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_verify_task(net_, j);
                     },
                     /*commit_after=*/true},
               Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_lambda_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kLambdaPsi, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_first_price_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase III.3.
    run_epoch(Phase::kWinner, outcome,
              {Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_disclose_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kWinner, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_winner_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase III.4.
    run_epoch(Phase::kSecondPrice, outcome,
              {Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_reduced_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kSecondPrice, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_second_price_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase IV.
    run_epoch(Phase::kPayments, outcome,
              {Stage{[this](Agent& a) { a.phase4_submit_payment_claim(net_); },
                     nullptr, false}});

    finalize_outcome(params_, net_, infra_, agents_, outcome);
    return outcome;
  }

 private:
  /// Delegation target for both public constructors: exactly one of `owned`
  /// / `borrowed` is set; pool_ points at whichever the caller provided.
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies,
                   std::unique_ptr<ThreadPool> owned, ThreadPool* borrowed,
                   const RunConfig& config)
      : params_(params),
        net_(params.n()),
        infra_(params.n()),
        agents_(make_dmw_agents(params, instance, strategies, config)),
        owned_pool_(std::move(owned)),
        pool_(borrowed != nullptr ? borrowed : owned_pool_.get()),
        worker_ops_(pool_->size()) {
    net_.enable_concurrency(pool_->size());
    if (params.tracing()) trace::Tracer::instance().set_enabled(true);
  }

  /// One stage of an epoch: an optional per-agent prologue, an optional
  /// per-(agent, task) fan-out, and an optional deferred-failure commit at
  /// the agent's stage boundary. An epoch is a short sequence of stages
  /// executed per agent chain.
  struct Stage {
    std::function<void(DmwAgent<G>&)> agent_fn;
    std::function<void(DmwAgent<G>&, std::size_t)> task_fn;
    bool commit_after = false;
  };

  /// Runtime-checked entry to the driver-only surface. run() may be invoked
  /// from any non-pool thread; everything downstream of it — run_epoch, the
  /// two interpreters, advance_round, worker_ops_ merges, deferred-failure
  /// commits on the lockstep path — assumes the caller IS the (single)
  /// driver. The assert tells clang's capability analysis to assume the
  /// driver_role_ role from here on, and the DMW_REQUIRE backs that up at
  /// runtime: a pool worker reaching run() (e.g. a future nested-engine
  /// refactor) trips immediately instead of racing the epoch bookkeeping.
  void assert_driver() DMW_ASSERT_CAPABILITY(driver_role_) {
    DMW_REQUIRE_MSG(ThreadPool::current_worker_id() == -1,
                    "ParallelProtocol::run called from a pool worker");
  }

  /// One network epoch: the stages run (pipelined per agent, or lockstep
  /// under deterministic_schedule), then the round advances and the phase
  /// bucket absorbs this epoch's traffic, wall time and the op-count deltas
  /// of the driver and every worker.
  void run_epoch(Phase phase, Outcome& outcome, std::vector<Stage> stages)
      DMW_REQUIRES(driver_role_) {
    if (outcome.aborted) return;
    net_.set_comm_phase(static_cast<std::uint32_t>(phase), to_string(phase));
    const auto traffic_before = net_.stats();
    for (auto& ops : worker_ops_) ops = dmw::num::OpCounts{};
    dmw::num::OpCountScope driver_ops;
    trace::Span span(to_string(phase));
    const std::int64_t step_begin_ns = trace::Tracer::instance().now_ns();

    if (pool_->deterministic_schedule())
      run_lockstep(stages);
    else
      run_pipelined(stages);

    net_.advance_round();
    ++outcome.rounds;
    for (int wait = 0; net_.in_flight() > 0 && wait < 1024; ++wait) {
      net_.advance_round();
      ++outcome.rounds;
    }

    auto& bucket = outcome.phases[static_cast<std::size_t>(phase)];
    bucket.seconds +=
        static_cast<double>(trace::Tracer::instance().now_ns() -
                            step_begin_ns) *
        1e-9;
    bucket.ops += driver_ops.delta();
    dmw::num::OpCounts workers_total;
    for (const auto& ops : worker_ops_) workers_total += ops;
    bucket.ops += workers_total;
    // Credit the workers' ops to the driver thread too (after the
    // driver_ops.delta() read, so the bucket is not double-counted): the
    // enclosing phase span and any caller's OpCountScope then observe the
    // same per-phase deltas as the sequential driver, which is what keeps
    // RunReports engine-invariant.
    dmw::num::op_counts() += workers_total;
    accumulate_traffic(bucket.stats, net_.stats(), traffic_before);

    note_aborts(agents_, outcome);
    // Epoch boundary: every worker is idle (the barrier/drain returned), so
    // their span buffers can be drained into the central log in worker-id
    // order. This is the only place spans are flushed — there are no
    // intra-epoch stage barriers anymore.
    if (trace::on()) trace::Tracer::instance().flush_thread_buffers();
  }

  // ---- Legacy lockstep interpreter (deterministic_schedule) ----------------

  /// Runs every stage as a global barrier: per-agent prologue sharded over
  /// agents, per-task fan-out sharded over tasks (worker owning task j runs
  /// it for every agent), commits serial on the driver in agent order. The
  /// worker->indices mapping is the pool's static partition — a pure
  /// function of (count, thread count).
  void run_lockstep(const std::vector<Stage>& stages)
      DMW_REQUIRES(driver_role_) {
    for (const Stage& stage : stages) {
      if (stage.agent_fn) {
        pool_->parallel_for(agents_.size(), [&](std::size_t i) {
          charge([&] { stage.agent_fn(*agents_[i]); });
        });
      }
      if (stage.task_fn) {
        pool_->parallel_for(params_.m(), [&](std::size_t j) {
          charge([&] {
            for (auto& agent : agents_) stage.task_fn(*agent, j);
          });
        });
      }
      if (stage.commit_after)
        for (auto& agent : agents_) agent->commit_task_failures(net_);
    }
  }

  // ---- Pipelined interpreter (default) -------------------------------------

  /// Per-agent chains through the epoch's stages. Each chain runs its
  /// prologue, fans its task work out as stealable chunk slices, and the
  /// last slice to finish (per-chain epoch counter hitting zero) commits the
  /// agent's deferred failures and advances the chain — no cross-agent join
  /// anywhere; the driver only waits for the whole epoch to drain.
  void run_pipelined(const std::vector<Stage>& stages)
      DMW_REQUIRES(driver_role_) {
    const std::size_t n = agents_.size();
    const std::size_t m = params_.m();
    // Chunk width for the task fan-out: slices of the n*m (agent, task)
    // grid, sized so every stage yields several stealable slices per worker
    // even when m < threads.
    const std::size_t chunk = pool_->chunk_size(n * m);

    struct Chain {
      std::size_t stage = 0;
      std::atomic<std::size_t> remaining{0};
    };
    std::vector<Chain> chains(n);

    // advance(i) runs agent i's chain from its current stage until it either
    // fans out task slices (the last slice re-enters advance) or finishes
    // the epoch. Jobs capture it, like the rest of this frame, by reference:
    // all of them complete before drain() returns.
    std::function<void(std::size_t)> advance;
    advance = [&, chunk, m](std::size_t i) {
      Chain& chain = chains[i];
      while (chain.stage < stages.size()) {
        const Stage& stage = stages[chain.stage];
        if (stage.agent_fn) charge([&] { stage.agent_fn(*agents_[i]); });
        if (stage.task_fn && m > 0) {
          const std::size_t slices = (m + chunk - 1) / chunk;
          chain.remaining.store(slices, std::memory_order_relaxed);
          for (std::size_t begin = 0; begin < m; begin += chunk) {
            const std::size_t end = begin + chunk < m ? begin + chunk : m;
            pool_->submit([this, &advance, &chain, &stage, i, begin, end] {
              charge([&] {
                for (std::size_t j = begin; j < end; ++j)
                  stage.task_fn(*agents_[i], j);
              });
              if (chain.remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                  1) {
                if (stage.commit_after)
                  charge([&] { agents_[i]->commit_task_failures(net_); });
                ++chain.stage;
                advance(i);
              }
            });
          }
          return;  // the last slice continues the chain
        }
        if (stage.commit_after)
          charge([&] { agents_[i]->commit_task_failures(net_); });
        ++chain.stage;
      }
    };

    for (std::size_t i = 0; i < n; ++i)
      pool_->submit([&advance, i] { advance(i); });
    pool_->drain();
  }

  /// Run body() under an op-count scope and bank the delta in the calling
  /// worker's slot (the driver's thread-local counter already feeds
  /// driver_ops in run_epoch).
  template <class Body>
  void charge(Body&& body) {
    dmw::num::OpCountScope scope;
    body();
    const int worker = ThreadPool::current_worker_id();
    if (worker >= 0) worker_ops_[static_cast<std::size_t>(worker)] +=
        scope.delta();
  }

  const PublicParams<G>& params_;
  net::SimNetwork net_;
  PaymentInfrastructure infra_;
  std::vector<std::unique_ptr<DmwAgent<G>>> agents_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when the pool is borrowed
  ThreadPool* pool_;                        ///< owned_pool_.get() or borrowed
  std::vector<dmw::num::OpCounts> worker_ops_;  // merged per run_epoch
  /// Phantom "driver" capability (annotations.hpp): run_epoch and the
  /// interpreters DMW_REQUIRES it, assert_driver() produces it.
  ThreadRole driver_role_;
};

/// Convenience: run DMW with every agent honest on `threads` workers.
template <dmw::num::GroupBackend G>
Outcome run_parallel_dmw(const PublicParams<G>& params,
                         const mech::SchedulingInstance& instance,
                         std::size_t threads, RunConfig config = RunConfig{}) {
  HonestStrategy<G> honest;
  std::vector<Strategy<G>*> strategies(params.n(), &honest);
  ParallelProtocol<G> runner(params, instance, std::move(strategies), threads,
                             config);
  return runner.run();
}

}  // namespace dmw::proto
