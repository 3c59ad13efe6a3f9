// Fixed-size worker pool for the task-parallel auction engine.
//
// The DMW protocol runs m *independent* per-task Vickrey auctions (paper §4;
// Thm. 11/12 costs are per task), so the natural units of parallelism are the
// task index and, finer, the (agent, task-chunk) slice. The pool has one
// scheduling discipline: jobs are pushed onto per-worker deques and idle
// workers steal from the back of their victims' deques. parallel_for() is
// chunked self-scheduling, and submit()/drain() let a driver seed dependency
// chains whose continuation jobs are spawned *by workers* — the basis of the
// pipelined protocol engine, where a slow slice does not stall every sibling
// at a stage barrier.
//
// Which worker runs which index is schedule-dependent; the protocol's
// *results* are not. Determinism of outputs is carried by keyed
// per-(agent,task) randomness and deferred-failure commit, and the
// sequential ProtocolRunner stays the reference oracle for it.
//
// This is the only sanctioned threading primitive for protocol code: dmwlint's
// `raw-thread` rule rejects direct std::thread/std::mutex/latch/semaphore use
// in src/dmw and src/exp so every concurrent path stays inside this audited
// pool (and thus inside the TSan CI job's coverage). The pool's own locking
// discipline is capability-annotated (support/annotations.hpp): clang's
// -Wthread-safety pass proves every access to the guarded members below
// happens under mutex_ / the owning deque's mutex.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace dmw {

/// N persistent workers executing stealable queued jobs.
///
/// Reentrancy contract: parallel_for() and drain() may only be called from
/// the thread that owns the pool (never from inside a job — workers would
/// deadlock waiting on themselves). submit() is callable from anywhere,
/// including from inside a running job (that is how dependency chains
/// schedule their continuations). One parallel_for/drain runs at a time; the
/// call returns after every index/job has been processed, which gives callers
/// a happens-before barrier between successive stages.
class ThreadPool {
 public:
  /// `deterministic` is a vestige of the deleted static schedule, kept only
  /// because perfbench/driver.cpp passes it; true is rejected.
  explicit ThreadPool(std::size_t threads, bool deterministic = false)
      : size_(threads == 0 ? 1 : threads), queues_(make_queues(size_)) {
    DMW_REQUIRE_MSG(!deterministic, "the static schedule was removed");
    workers_.reserve(size_);
    for (std::size_t w = 0; w < size_; ++w)
      workers_.emplace_back([this, w] { worker_loop(w); });
  }

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Worker index [0, size) on a pool thread, -1 on any other thread. Used
  /// to address per-worker accumulator slots without locks.
  static int current_worker_id() { return t_worker_id; }

  /// Sensible default worker count for "--threads 0": the hardware
  /// concurrency, floored at 1 (hardware_concurrency() may report 0).
  static std::size_t default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }

  /// Run fn(i) for every i in [0, count). Blocks until all indices are done;
  /// the first exception thrown by any index is rethrown here after the
  /// barrier. Chunked jobs are seeded onto the worker deques and stealing
  /// balances them; every index runs exactly once on exactly one worker, but
  /// which worker is schedule-dependent.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    DMW_REQUIRE_MSG(current_worker_id() == -1,
                    "ThreadPool::parallel_for called from a worker");
    // Chunked self-scheduling: ~4 chunks per worker bounds both the job
    // overhead (few, fat jobs) and the tail imbalance (enough chunks to
    // steal).
    const std::size_t chunk = chunk_size(count);
    for (std::size_t begin = 0; begin < count; begin += chunk) {
      const std::size_t end = begin + chunk < count ? begin + chunk : count;
      submit([&fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      });
    }
    drain();
  }

  /// Enqueue one job. From a worker: pushed onto that worker's own deque
  /// (front — continuations run hot). From the owner: distributed round-robin
  /// across the deques (back). Jobs may submit further jobs; drain() counts
  /// them all.
  void submit(std::function<void()> job) {
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    const int self = current_worker_id();
    const std::size_t target =
        self >= 0 ? static_cast<std::size_t>(self)
                  : next_queue_.fetch_add(1, std::memory_order_relaxed) % size_;
    {
      WorkerQueue& q = *queues_[target];
      MutexLock lock(q.mutex);
      if (self >= 0)
        q.jobs.emplace_front(std::move(job));
      else
        q.jobs.emplace_back(std::move(job));
    }
    queued_.fetch_add(1, std::memory_order_release);
    {
      // Empty critical section: pairs the notify with the sleepers'
      // predicate re-check so a worker cannot miss the wakeup between
      // testing queued_ and blocking.
      MutexLock lock(mutex_);
    }
    wake_.notify_all();
  }

  /// Block the owning thread until every submitted job (including jobs
  /// submitted by jobs) has finished. Rethrows the first job exception.
  void drain() {
    DMW_REQUIRE_MSG(current_worker_id() == -1,
                    "ThreadPool::drain called from a worker");
    MutexLock lock(mutex_);
    while (outstanding_.load(std::memory_order_acquire) != 0)
      done_.wait(mutex_);
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  /// Chunk width parallel_for uses for `count` indices:
  /// max(1, count / (4 * workers)). Exposed so callers slicing their own
  /// fan-outs (the pipelined engine) agree with the pool's granularity.
  std::size_t chunk_size(std::size_t count) const {
    const std::size_t chunks = 4 * size_;
    const std::size_t chunk = count / chunks;
    return chunk == 0 ? 1 : chunk;
  }

 private:
  struct WorkerQueue {
    Mutex mutex;
    std::deque<std::function<void()>> jobs DMW_GUARDED_BY(mutex);
  };

  static std::vector<std::unique_ptr<WorkerQueue>> make_queues(
      std::size_t count) {
    std::vector<std::unique_ptr<WorkerQueue>> queues(count);
    for (auto& q : queues) q = std::make_unique<WorkerQueue>();
    return queues;
  }

  /// Pop from own front, else steal from victims' backs (round-robin scan
  /// starting after self, so steal pressure spreads). Returns false when
  /// every deque is empty.
  bool try_pop(std::size_t id, std::function<void()>& job) {
    {
      WorkerQueue& own = *queues_[id];
      MutexLock lock(own.mutex);
      if (!own.jobs.empty()) {
        job = std::move(own.jobs.front());
        own.jobs.pop_front();
        return true;
      }
    }
    for (std::size_t off = 1; off < size_; ++off) {
      WorkerQueue& victim = *queues_[(id + off) % size_];
      MutexLock lock(victim.mutex);
      if (!victim.jobs.empty()) {
        job = std::move(victim.jobs.back());
        victim.jobs.pop_back();
        return true;
      }
    }
    return false;
  }

  void run_job(std::function<void()>& job) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    try {
      job();
    } catch (...) {
      MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    job = nullptr;  // destroy captures before the completion count drops
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(mutex_);
      done_.notify_all();
    }
  }

  void worker_loop(std::size_t id) {
    t_worker_id = static_cast<int>(id);
    std::function<void()> job;
    for (;;) {
      while (try_pop(id, job)) run_job(job);
      MutexLock lock(mutex_);
      while (!stop_ && queued_.load(std::memory_order_acquire) == 0)
        wake_.wait(mutex_);
      if (stop_) return;
    }
  }

  const std::size_t size_;
  // Vector and pointees are built once in the ctor; each WorkerQueue's deque
  // is guarded by its own mutex.
  const std::vector<std::unique_ptr<WorkerQueue>> queues_;
  // dmwlint:allow(guarded-member) written only by the ctor (emplace) and the
  // dtor (join), strictly before workers exist / after they stopped.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;
  CondVar done_;

  // Guarded by mutex_; clang's capability analysis enforces it.
  bool stop_ DMW_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ DMW_GUARDED_BY(mutex_);

  // Scheduler state.
  std::atomic<std::size_t> outstanding_{0};  ///< submitted, not yet finished
  std::atomic<std::size_t> queued_{0};       ///< submitted, not yet popped
  std::atomic<std::size_t> next_queue_{0};   ///< owner-submit round-robin

  inline static thread_local int t_worker_id = -1;
};

}  // namespace dmw
