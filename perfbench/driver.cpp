// perfbench_driver — one workload of the per-auction benchmark.
//
// Closed loop with one client: the next AuctionRequest goes to
// ServeEngine<G>::run_auction when the previous one returns. Everything the
// engine sees (group, PublicParams, request stream) is generated from --seed.
//
//   --trace 0  set up several times (median = setup_s), warm up, measure the
//              steady window untraced, then check correctness; prints the
//              end-to-end metrics.
//   --trace 1  run the layer probes, then measure the window on two engines:
//              each request runs untraced (heap counting on) and then again
//              with the tracer on (real clock) inside the benchmark's own
//              spans; prints the per-layer metrics. Writes a Chrome trace
//              and the per-layer JSON under --out-dir.
//
// Either mode checks every window auction against mech::run_minwork, replays
// a fixed sample through the sequential ProtocolRunner, and compares the
// untraced outcome digest with a traced replay's. The last stdout line is a
// JSON object; run.py validates the metric names and reshapes it.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "alloc_counter.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "crypto/transcript.hpp"
#include "dmw/messages.hpp"
#include "dmw/serve.hpp"
#include "mech/minwork.hpp"
#include "numeric/simd.hpp"
#include "stats.hpp"
#include "support/flags.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using dmw::num::GroupBackend;
using dmw::proto::AuctionRequest;
using dmw::proto::Outcome;
using dmw::proto::PublicParams;
using dmw::proto::ServeEngine;

// ---- Workloads --------------------------------------------------------------

/// Pool workers of every workload. One, because on a shared VM the
/// hypervisor steals CPU once several vCPUs are busy and multi-worker wall
/// times then follow the neighbours' load (README.md, "Why one worker").
/// The whole process runs on one CPU (pin_to_one_cpu).
constexpr std::size_t kWorkers = 1;

/// One fixed workload. README.md says why each exists and what it predicts.
struct Workload {
  const char* name;
  std::size_t n, m, c;
  bool sealed;
  std::size_t warmup_auctions;
  std::size_t exact_prefix;    ///< window auctions behind the exact counts
  std::size_t setup_repeats;   ///< setups before and again after the window
  std::size_t oneshot_sample;  ///< window auctions replayed sequentially
  std::size_t digest_sample;   ///< traced replays behind the digest check
};

constexpr Workload kWorkloads[] = {
    {"sealed-g64", 12, 4, 2, true, 10, 32, 20, 4, 8},
    {"small-plain-g64", 5, 1, 1, false, 300, 256, 100, 16, 64},
};

/// Window auctions every --trace 0 run holds at least. Its slow quarter
/// (perfbench::slow_floor) fixes the tail level at p90 (ten samples
/// beyond). Higher levels were tried: on a shared VM, p95 and p99 follow the
/// host's CPU-steal bursts, which hit 1-5% of auctions, and spread far
/// beyond the 0.25 bound between runs.
constexpr std::size_t kWindowFloor = 400;

/// Spans around the traced run's first auctions that go to the Chrome trace.
constexpr std::size_t kChromeAuctions = 2;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---- Metric names -----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"throughput_aps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"setup_s", "s"},
    {"cpu_ms_per_auction", "ms"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"crypto.aead_seals_per_auction", "count"},
    {"crypto.aead_seal_us", "us"},
    {"crypto.aead_open_us", "us"},
    {"crypto.hkdf_us", "us"},
    {"crypto.sha256_block_ns", "ns"},
    {"crypto.modeled_ms_per_auction", "ms"},
    {"numeric.mul_per_auction", "count"},
    {"numeric.pow_per_auction", "count"},
    {"numeric.inv_per_auction", "count"},
    {"numeric.add_per_auction", "count"},
    {"numeric.mul_ns", "ns"},
    {"numeric.pow_ns", "ns"},
    {"numeric.inv_ns", "ns"},
    {"numeric.add_ns", "ns"},
    {"numeric.modeled_ms_per_auction", "ms"},
    {"net.messages_per_auction", "count"},
    {"net.wire_bytes_per_auction", "B"},
    {"net.rounds_per_auction", "count"},
    {"net.codec_ns_per_byte", "ns/B"},
    {"dmw.bidding_ms", "ms"},
    {"dmw.lambda_psi_ms", "ms"},
    {"dmw.winner_ms", "ms"},
    {"dmw.second_price_ms", "ms"},
    {"dmw.payments_ms", "ms"},
    {"dmw.send_task_ms", "ms"},
    {"dmw.prepare_ms", "ms"},
    {"dmw.ingest_ms", "ms"},
    {"dmw.verify_shares_ms", "ms"},
    {"dmw.price_resolution_ms", "ms"},
    {"dmw.second_price_resolution_ms", "ms"},
    {"dmw.absorb_published_ms", "ms"},
    {"dmw.overhead_ms", "ms"},
    {"dmw.unattributed_frac", "frac"},
    {"support.heap_allocs_per_auction", "count"},
    {"support.heap_bytes_per_auction", "B"},
    {"support.heap_live_growth_b_per_auction", "B"},
    {"support.worker_busy_frac", "frac"},
    {"support.pool_epoch_us", "us"},
    {"support.trace_overhead_frac", "frac"},
};

/// Existing library spans whose self time dmw.<metric>_ms reports.
constexpr std::pair<const char*, const char*> kSelfTimeSpans[] = {
    {"phase2/send_task", "dmw.send_task_ms"},
    {"phase2/prepare", "dmw.prepare_ms"},
    {"phase3/ingest", "dmw.ingest_ms"},
    {"phase3/verify_shares", "dmw.verify_shares_ms"},
    {"phase3/price_resolution", "dmw.price_resolution_ms"},
    {"phase3/second_price_resolution", "dmw.second_price_resolution_ms"},
    {"phase3/absorb_published", "dmw.absorb_published_ms"},
};

constexpr const char* kPhaseMetrics[] = {
    "dmw.bidding_ms", "dmw.lambda_psi_ms", "dmw.winner_ms",
    "dmw.second_price_ms", "dmw.payments_ms"};
static_assert(std::size(kPhaseMetrics) ==
              static_cast<std::size_t>(dmw::proto::Phase::kCount));

// ---- Clocks and process figures ---------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// This process's resident high-water mark (VmHWM). Not getrusage's
/// ru_maxrss: Linux carries that across execve, so under a launcher it
/// reports the launcher's footprint whenever that is the larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  DMW_REQUIRE_MSG(false, "no VmHWM in /proc/self/status");
  return 0;
}

/// Pins the process, before it starts any thread, to the highest-numbered
/// CPU it may run on; every thread it starts inherits that. The client and
/// the pool worker hand every epoch to each other (about 20 a
/// small-plain-g64 auction). On one CPU that is a context switch. Across
/// two vCPUs it is a wake-up that waits until the hypervisor runs the idle
/// vCPU again: on a busy host, small-plain-g64 auctions then took 2.3 ms of
/// wall time for 0.9 ms of CPU. Returns the CPU, or -1 if pinning failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // drop the NUL padding
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

// ---- JSON output (full double precision) ------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// Ordered name -> (value, unit) list printed as {"name": {"value","unit"}}.
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  template <std::size_t N>
  std::string json(const MetricSpec (&specs)[N]) const {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
      const auto it = values_.find(specs[i].name);
      DMW_REQUIRE_MSG(it != values_.end(),
                      std::string("metric not measured: ") + specs[i].name);
      if (i > 0) out += ", ";
      out.append("\"").append(specs[i].name).append("\": {\"value\": ");
      out.append(json_number(it->second)).append(", \"unit\": \"");
      out.append(specs[i].unit).append("\"}");
    }
    out += "}";
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// ---- Probe timing -----------------------------------------------------------

/// Median over `batches` of the mean time per call of `calls` calls to
/// `body`, in ns, after one untimed warm batch.
template <class Body>
double time_per_call_ns(std::size_t calls, std::size_t batches, Body&& body) {
  for (std::size_t i = 0; i < calls; ++i) body();
  std::vector<double> per_call;
  per_call.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body();
    per_call.push_back(static_cast<double>(now_ns() - start) /
                       static_cast<double>(calls));
  }
  return perfbench::median(per_call);
}

/// Keeps a probe's result observable so the compiler cannot drop the work.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// ---- The benchmark ----------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  double seconds = 55;
  bool trace = false;
  std::string out_dir;
};

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A fresh 61-bit p / 40-bit q group per seed (the size of the repo's
/// Group64 test fixture).
template <GroupBackend G>
G make_group(std::uint64_t seed);

template <>
dmw::num::Group64 make_group(std::uint64_t seed) {
  dmw::Xoshiro256ss rng(splitmix64(seed ^ 0x67726f7570ULL));
  return dmw::num::Group64::generate(61, 40, rng);
}

template <GroupBackend G>
class Bench {
 public:
  Bench(const Workload& workload, const Options& options, int cpu)
      : w_(workload),
        opt_(options),
        cpu_(cpu),
        request_base_(splitmix64(options.seed)) {}

  int run() {
    stamp_host();
    if (opt_.trace) {
      run_traced_mode();
    } else {
      run_end_to_end_mode();
    }
    print_result();
    return failed_ == 0 ? 0 : 2;
  }

 private:
  using Engine = ServeEngine<G>;

  /// A built serving stack: params outlive the engine that references them.
  struct Stack {
    std::unique_ptr<PublicParams<G>> params;
    std::unique_ptr<Engine> engine;
  };

  /// The untraced closed-loop window and what the checks need from it.
  struct Window {
    std::size_t first = 0;  ///< request index of the first window auction
    perfbench::WindowSamples samples;
    double wall_s = 0;  ///< window start to end, shadow included
    perfbench::AllocTotals allocs;
    double peak_rss_mib = 0;  ///< read when the window reached min_auctions
    /// Per auction: outcome_hash of its schedule and payments.
    std::vector<std::uint64_t> hashes;
    std::vector<Outcome> sample;  ///< first oneshot_sample window outcomes
    std::string digest_at_sample;  ///< engine digest after digest_sample
    std::string digest_end;
  };

  AuctionRequest request(std::size_t index) const {
    AuctionRequest r;
    r.id = index;
    r.seed = request_base_ + index;
    r.workload = dmw::proto::WorkloadKind::kUniform;
    return r;
  }

  typename Engine::Config engine_config() const {
    typename Engine::Config config;
    config.threads = kWorkers;
    config.deterministic_schedule = false;
    config.encrypt_channels = w_.sealed;
    return config;
  }

  /// Group generation, PublicParams::make, ServeEngine construction (pool
  /// spawn) and the first, cold auction: what a one-shot user waits for.
  Stack set_up() {
    DMW_SPAN("bench/setup");
    Stack stack;
    std::optional<G> group;
    {
      DMW_SPAN("bench/group_generate");
      group.emplace(make_group<G>(opt_.seed));
    }
    {
      DMW_SPAN("bench/params_make");
      stack.params = std::make_unique<PublicParams<G>>(PublicParams<G>::make(
          std::move(*group), w_.n, w_.m, w_.c, opt_.seed));
    }
    {
      DMW_SPAN("bench/engine_construct");
      stack.engine = std::make_unique<Engine>(*stack.params, engine_config());
    }
    {
      DMW_SPAN("bench/run_auction", 0);
      cold_outcome_ = stack.engine->run_auction(request(0));
    }
    return stack;
  }

  void stamp_host() {
    host_ = "{\"workload\": \"" + std::string(w_.name) +
            "\", \"seed\": " + std::to_string(opt_.seed) +
            ", \"seconds\": " + json_number(opt_.seconds) +
            ", \"trace\": " + (opt_.trace ? "1" : "0") +
            ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"cpu_model\": \"" + json_escape(cpu_model()) +
            "\", \"simd_backend\": \"" +
            dmw::num::simd::backend_name(dmw::num::simd::active_backend()) +
            "\", \"compiler\": \"" + json_escape(__VERSION__) +
            "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"workers\": " +
            std::to_string(kWorkers) + ", \"pinned_cpu\": " +
            std::to_string(cpu_) + "}";
  }

  /// Runs after each window auction, outside its timing: the traced replay.
  using Shadow = std::function<void(const AuctionRequest&)>;

  /// Warm up on `engine` from request 1, then run the closed-loop window.
  /// Heap counting (when asked) and CPU time cover `engine`'s auctions
  /// only, not the `shadow` that may follow each of them.
  Window measure_window(Engine& engine, double window_s,
                        std::size_t min_auctions, bool count_allocs,
                        const Shadow& shadow = nullptr) {
    perfbench::WindowPlan plan;
    plan.warmup_auctions = w_.warmup_auctions;
    plan.window_s = window_s;
    plan.min_auctions = min_auctions;

    Window win;
    std::size_t index = 1;
    while (plan.warming(index - 1)) engine.run_auction(request(index++));
    win.first = index;

    win.hashes.reserve(4 * min_auctions);
    win.sample.reserve(w_.oneshot_sample);

    const perfbench::AllocTotals allocs_before = perfbench::alloc_totals();
    const std::int64_t window_start = now_ns();
    std::int64_t last_end = window_start;
    std::size_t done = 0;
    const auto elapsed_s = [&] {
      return static_cast<double>(last_end - window_start) * 1e-9;
    };
    while (!plan.window_done(done, elapsed_s())) {
      const AuctionRequest req = request(index++);
      perfbench::set_alloc_counting(count_allocs);
      const double cpu_before = cpu_seconds();
      const std::int64_t start = now_ns();
      const Outcome& outcome = engine.run_auction(req);
      last_end = now_ns();
      const double cpu_ms = (cpu_seconds() - cpu_before) * 1e3;
      ++done;

      // Bookkeeping outside the timed call; growth is not the engine's.
      perfbench::set_alloc_counting(false);
      win.samples.latency_ms.push_back(static_cast<double>(last_end - start) *
                                       1e-6);
      win.samples.end_s.push_back(elapsed_s());
      win.samples.cpu_ms.push_back(cpu_ms);
      win.hashes.push_back(outcome_hash(outcome));
      // Peak RSS after a fixed amount of work: the pipelined engine leaks
      // per auction (heap_live_growth_b_per_auction), so a reading at the
      // window's end would grow with throughput.
      if (done == min_auctions) win.peak_rss_mib = peak_rss_mib();
      if (done <= w_.oneshot_sample) win.sample.push_back(outcome);
      if (done == w_.digest_sample)
        win.digest_at_sample = engine.outcome_digest();
      if (shadow) {
        shadow(req);
        last_end = now_ns();
      }
    }
    win.wall_s = elapsed_s();
    const perfbench::AllocTotals allocs_after = perfbench::alloc_totals();
    win.allocs.allocations =
        allocs_after.allocations - allocs_before.allocations;
    win.allocs.bytes = allocs_after.bytes - allocs_before.bytes;
    win.allocs.live_bytes =
        allocs_after.live_bytes - allocs_before.live_bytes;
    win.digest_end = engine.outcome_digest();
    return win;
  }

  /// FNV-1a over (aborted, task -> agent, payments): what the MinWork check
  /// compares, kept at 8 bytes per auction so the window's own bookkeeping
  /// barely moves peak_rss_mib.
  std::uint64_t outcome_hash(
      bool aborted, const dmw::mech::Schedule& schedule,
      const std::vector<std::uint64_t>& payments) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x100000001b3ULL;
    };
    mix(aborted ? 1 : 0);
    if (aborted) return h;
    for (std::size_t j = 0; j < w_.m; ++j) mix(schedule.agent_for(j));
    for (const auto payment : payments) mix(payment);
    return h;
  }

  std::uint64_t outcome_hash(const Outcome& outcome) const {
    return outcome_hash(outcome.aborted, outcome.schedule, outcome.payments);
  }

  /// Every window auction against centralized MinWork on the same instance,
  /// and the fixed sample against the sequential ProtocolRunner.
  void check_window(const PublicParams<G>& params, const Window& win) {
    attempted_ = win.samples.latency_ms.size();
    for (std::size_t a = 0; a < attempted_; ++a) {
      const auto req = request(win.first + a);
      const auto instance = dmw::proto::make_workload_instance(
          req.workload, w_.n, w_.m, params.bid_set(), req.seed);
      const auto reference = dmw::mech::run_minwork(instance);
      if (win.hashes[a] != outcome_hash(false, reference.schedule,
                                        reference.payments)) {
        ++failed_;
        note_failure("auction " + std::to_string(req.id) +
                     " differs from run_minwork");
      }
    }

    dmw::proto::HonestStrategy<G> honest;
    const std::vector<dmw::proto::Strategy<G>*> strategies(w_.n, &honest);
    for (std::size_t a = 0; a < win.sample.size(); ++a) {
      const auto req = request(win.first + a);
      const auto instance = dmw::proto::make_workload_instance(
          req.workload, w_.n, w_.m, params.bid_set(), req.seed);
      dmw::proto::RunConfig config;
      config.secret_seed = dmw::proto::serve_secret_seed(
          typename Engine::Config{}.base_secret_seed, req.seed);
      config.encrypt_channels = w_.sealed;
      dmw::proto::ProtocolRunner<G> runner(params, instance, strategies,
                                           config);
      if (!Engine::outcomes_identical(win.sample[a], runner.run())) {
        ++failed_;
        note_failure("auction " + std::to_string(req.id) +
                     " differs from the sequential ProtocolRunner");
      }
    }
  }

  void check_digest(const std::string& untraced, const std::string& traced) {
    if (untraced != traced) {
      ++failed_;
      note_failure("untraced outcome digest " + untraced +
                   " != traced digest " + traced);
    }
  }

  void note_failure(const std::string& what) {
    DMW_ERROR() << w_.name << ": " << what;
  }

  /// Tracer on, real clock, empty log.
  static void start_tracing() {
    auto& tracer = dmw::trace::Tracer::instance();
    tracer.set_clock_mode(dmw::trace::ClockMode::kReal);
    tracer.reset();
    tracer.set_enabled(true);
  }

  static void stop_tracing() {
    auto& tracer = dmw::trace::Tracer::instance();
    tracer.set_enabled(false);
    tracer.reset();
  }

  // ---- --trace 0 ------------------------------------------------------------

  /// The engine references the params: release it first.
  static void tear_down(Stack& stack) {
    stack.engine.reset();
    stack.params.reset();
  }

  /// Tears `stack` down and sets it up again w_.setup_repeats times,
  /// appending each setup's time to `setups`.
  void time_setups(Stack& stack, std::vector<double>& setups) {
    for (std::size_t r = 0; r < w_.setup_repeats; ++r) {
      tear_down(stack);  // outside the timing
      const std::int64_t start = now_ns();
      stack = set_up();
      setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    }
  }

  void run_end_to_end_mode() {
    // Setups before the window (it runs on the last of them) and again
    // after it: the median then spans the run, not one host speed mode.
    std::vector<double> setups;
    Stack stack;
    time_setups(stack, setups);

    const Window win =
        measure_window(*stack.engine, opt_.seconds, kWindowFloor, false);
    const auto fig = perfbench::window_figures(win.samples, kWindowFloor);
    metrics_.set("throughput_aps", fig.throughput_aps);
    metrics_.set("latency_p50_ms", fig.latency_p50_ms);
    metrics_.set("latency_tail_ms", fig.latency_tail_ms);
    metrics_.set("cpu_ms_per_auction", fig.cpu_ms_per_auction);
    metrics_.set("peak_rss_mib", win.peak_rss_mib);
    context_ = "\"tail_percentile\": " + json_number(fig.tail_percentile) +
               ", \"samples\": " + std::to_string(fig.samples) +
               ", \"slow_samples\": " + std::to_string(fig.slow_samples) +
               ", \"warmup_auctions\": " + std::to_string(w_.warmup_auctions) +
               ", \"setup_repeats\": " + std::to_string(2 * w_.setup_repeats) +
               ", \"window_s\": " + json_number(win.wall_s);

    check_window(*stack.params, win);

    // Digest: a traced engine on the same params replays the cold auction,
    // the warmup and the first digest_sample window auctions. It goes before
    // the setups below tear the params down.
    {
      start_tracing();
      Engine traced(*stack.params, engine_config());
      const std::size_t replay = win.first + w_.digest_sample;
      for (std::size_t index = 0; index < replay; ++index) {
        traced.run_auction(request(index));
        dmw::trace::Tracer::instance().reset();  // keep the log small
      }
      stop_tracing();
      check_digest(win.digest_at_sample, traced.outcome_digest());
    }

    time_setups(stack, setups);
    metrics_.set("setup_s", perfbench::median(setups));
  }

  // ---- --trace 1 ------------------------------------------------------------

  void run_traced_mode() {
    // Two stacks on the same inputs: the untraced one is measured (heap
    // counting on), the traced one replays each of its window requests right
    // after it, so both see the same machine phases.
    Stack plain = set_up();
    start_tracing();
    auto& tracer = dmw::trace::Tracer::instance();
    Stack stack = set_up();
    probe_layers(*stack.params, cold_outcome_);

    // Warmup untraced: the Chrome trace keeps setup, probes and the first
    // window auctions, not the warmup.
    tracer.set_enabled(false);
    for (std::size_t index = 1; index <= w_.warmup_auctions; ++index)
      stack.engine->run_auction(request(index));

    std::vector<double> latency_ms;
    std::map<std::string, std::int64_t> self_ns;
    std::array<double, static_cast<std::size_t>(dmw::proto::Phase::kCount)>
        phase_s{};
    dmw::num::OpCounts ops;
    std::uint64_t messages = 0, wire_bytes = 0, seals = 0, rounds = 0;
    std::string chrome;
    const auto traced_replay = [&](const AuctionRequest& req) {
      const std::size_t a = latency_ms.size();
      tracer.set_enabled(true);
      std::int64_t start = 0, end = 0;
      {
        DMW_SPAN("bench/run_auction", req.id);
        start = now_ns();
        const Outcome& outcome = stack.engine->run_auction(req);
        end = now_ns();
        for (std::size_t p = 0; p < phase_s.size(); ++p)
          phase_s[p] += outcome.phases[p].seconds;
        if (a < w_.exact_prefix) {
          for (const auto& phase : outcome.phases) ops += phase.ops;
          rounds += outcome.rounds;
          for (const auto& row : outcome.comm) {
            messages += row.counts.messages;
            wire_bytes += row.counts.wire_bytes;
            if (w_.sealed && row.kind_name == "shares")
              seals += row.counts.messages;
          }
        }
      }
      tracer.set_enabled(false);
      latency_ms.push_back(static_cast<double>(end - start) * 1e-6);
      // The Chrome trace keeps setup, probes and the first window auctions;
      // self time comes from the auctions after them.
      if (a + 1 == kChromeAuctions) {
        chrome = tracer.chrome_trace_json();
        tracer.reset();
      } else if (a + 1 > kChromeAuctions) {
        accumulate_self_time(tracer.events(), self_ns);
        tracer.reset();
      }
    };
    const Window win =
        measure_window(*plain.engine, opt_.seconds,
                       std::max(w_.exact_prefix, kChromeAuctions + 1), true,
                       traced_replay);
    const std::string traced_digest = stack.engine->outcome_digest();
    stop_tracing();
    check_window(*plain.params, win);
    check_digest(win.digest_end, traced_digest);

    const auto fig = perfbench::window_figures(win.samples, w_.exact_prefix);
    const std::size_t count = latency_ms.size();
    const double traced_mean_ms = perfbench::mean(latency_ms);
    const std::size_t prefix = std::min(count, w_.exact_prefix);
    const auto exact = [&](const char* name, std::uint64_t total) {
      metrics_.set(name,
                   perfbench::per_auction(static_cast<double>(total), prefix));
    };
    exact("crypto.aead_seals_per_auction", seals);
    exact("numeric.mul_per_auction", ops.mul);
    exact("numeric.pow_per_auction", ops.pow);
    exact("numeric.inv_per_auction", ops.inv);
    exact("numeric.add_per_auction", ops.add);
    exact("net.messages_per_auction", messages);
    exact("net.wire_bytes_per_auction", wire_bytes);
    exact("net.rounds_per_auction", rounds);

    double phase_total_ms = 0;
    for (std::size_t p = 0; p < phase_s.size(); ++p) {
      const double ms = perfbench::per_auction(phase_s[p] * 1e3, count);
      metrics_.set(kPhaseMetrics[p], ms);
      phase_total_ms += ms;
    }
    const std::size_t self_auctions = count - kChromeAuctions;
    for (const auto& [span, metric] : kSelfTimeSpans) {
      const auto it = self_ns.find(span);
      metrics_.set(metric, it == self_ns.end()
                               ? 0.0
                               : perfbench::per_auction(
                                     static_cast<double>(it->second) * 1e-6,
                                     self_auctions));
    }
    metrics_.set("dmw.overhead_ms", traced_mean_ms - phase_total_ms);

    // Model: probe prices times this workload's exact counts.
    perfbench::CryptoModel crypto;
    crypto.seals = metrics_.get("crypto.aead_seals_per_auction");
    crypto.opens = crypto.seals;
    crypto.key_derivations =
        w_.sealed ? static_cast<double>(2 * w_.n * (w_.n - 1)) : 0.0;
    crypto.agents = static_cast<double>(w_.n);
    crypto.seal_us = metrics_.get("crypto.aead_seal_us");
    crypto.open_us = metrics_.get("crypto.aead_open_us");
    crypto.hkdf_us = metrics_.get("crypto.hkdf_us");
    crypto.bulletin_absorb_us = bulletin_absorb_us_;
    perfbench::NumericModel numeric;
    numeric.mul = metrics_.get("numeric.mul_per_auction");
    numeric.inv = metrics_.get("numeric.inv_per_auction");
    numeric.add = metrics_.get("numeric.add_per_auction");
    numeric.mul_ns = metrics_.get("numeric.mul_ns");
    numeric.inv_ns = metrics_.get("numeric.inv_ns");
    numeric.add_ns = metrics_.get("numeric.add_ns");
    metrics_.set("crypto.modeled_ms_per_auction", crypto.ms());
    metrics_.set("numeric.modeled_ms_per_auction", numeric.ms());
    // CPU, not latency: the modeled work is CPU time, spread over the
    // workers when there are several.
    metrics_.set("dmw.unattributed_frac",
                 perfbench::unattributed_frac(crypto.ms(), numeric.ms(),
                                              fig.cpu_ms_per_auction));

    const auto heap = [&](const char* name, double total) {
      metrics_.set(name, perfbench::per_auction(total, fig.samples));
    };
    heap("support.heap_allocs_per_auction",
         static_cast<double>(win.allocs.allocations));
    heap("support.heap_bytes_per_auction",
         static_cast<double>(win.allocs.bytes));
    heap("support.heap_live_growth_b_per_auction",
         static_cast<double>(win.allocs.live_bytes));
    // CPU over the untraced auctions' own wall time, per worker.
    metrics_.set("support.worker_busy_frac",
                 perfbench::mean(win.samples.cpu_ms) /
                     (fig.mean_latency_ms * static_cast<double>(kWorkers)));
    metrics_.set("support.trace_overhead_frac",
                 traced_mean_ms / fig.mean_latency_ms - 1.0);

    context_ = "\"untraced_mean_ms\": " + json_number(fig.mean_latency_ms) +
               ", \"traced_mean_ms\": " + json_number(traced_mean_ms) +
               ", \"samples\": " + std::to_string(fig.samples) +
               ", \"exact_prefix\": " + std::to_string(prefix) +
               ", \"bulletin_absorb_us\": " + json_number(bulletin_absorb_us_) +
               ", \"share_plaintext_bytes\": " +
               std::to_string(share_plaintext_);
    write_trace_outputs(chrome);
  }

  static void accumulate_self_time(
      const std::vector<dmw::trace::SpanEvent>& events,
      std::map<std::string, std::int64_t>& total) {
    std::vector<perfbench::SpanInterval> spans;
    spans.reserve(events.size());
    for (const auto& e : events)
      spans.push_back({e.name, e.worker, e.begin_ns, e.end_ns});
    for (const auto& [name, ns] : perfbench::self_time_ns(std::move(spans)))
      total[name] += ns;
  }

  // ---- Layer probes ---------------------------------------------------------

  /// Times each module's public functions at this workload's call shapes:
  /// the share payload the comm ledger shows, the group's own operands, the
  /// engine's worker count and agent fan-out.
  void probe_layers(const PublicParams<G>& params, const Outcome& cold) {
    DMW_SPAN("bench/probes");
    const G& g = params.group();
    dmw::Xoshiro256ss rng(splitmix64(opt_.seed ^ 0x70726f6265ULL));

    // Share payload and bulletin postings of one auction, from the ledger.
    std::uint64_t share_msgs = 0, share_bytes = 0;
    std::vector<std::size_t> postings;  // payload sizes
    for (const auto& row : cold.comm) {
      const std::uint64_t msgs = row.counts.messages;
      if (msgs == 0) continue;
      const bool published = row.counts.p2p_messages == msgs * (w_.n - 1);
      if (row.kind_name == "shares") {
        share_msgs += msgs;
        share_bytes += row.counts.wire_bytes;
      } else if (published) {
        const std::size_t payload = row.counts.wire_bytes / msgs - 12;
        postings.insert(postings.end(), msgs, payload);
      }
    }
    DMW_REQUIRE_MSG(share_msgs > 0, "no shares traffic in the ledger");
    // Wire = 12-byte envelope header + payload; sealed payloads carry a
    // 4-byte nonce and the tag around the plaintext.
    const std::size_t share_payload = share_bytes / share_msgs - 12;
    share_plaintext_ = w_.sealed
                           ? share_payload - 4 - dmw::crypto::kAeadTagBytes
                           : share_payload;

    {
      DMW_SPAN("bench/probe/crypto");
      std::vector<std::uint8_t> key_bytes(dmw::crypto::kAeadKeyBytes);
      for (auto& b : key_bytes) b = static_cast<std::uint8_t>(rng.next());
      const auto key = dmw::crypto::make_aead_key(key_bytes);
      std::vector<std::uint8_t> plaintext(share_plaintext_);
      for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next());
      const std::vector<std::uint8_t> aad(12, 0x5a);
      std::uint64_t nonce = 0;
      const auto sealed = dmw::crypto::aead_seal(key, 1, plaintext, aad);
      metrics_.set("crypto.aead_seal_us", 1e-3 * time_per_call_ns(200, 15, [&] {
        keep(dmw::crypto::aead_seal(key, ++nonce, plaintext, aad));
      }));
      metrics_.set("crypto.aead_open_us", 1e-3 * time_per_call_ns(200, 15, [&] {
        const auto opened = dmw::crypto::aead_open(key, 1, sealed, aad);
        DMW_REQUIRE(opened.has_value());
        keep(opened);
      }));
      // Channel-key derivation: the serialized DH element as input key.
      std::vector<std::uint8_t> ikm(g.elem_bytes());
      for (auto& b : ikm) b = static_cast<std::uint8_t>(rng.next());
      metrics_.set("crypto.hkdf_us", 1e-3 * time_per_call_ns(200, 15, [&] {
        keep(dmw::crypto::hkdf_sha256(ikm, {}, "dmw-channel-3-7",
                                      dmw::crypto::kAeadKeyBytes));
      }));
      std::vector<std::uint8_t> block_input(4096);
      for (auto& b : block_input) b = static_cast<std::uint8_t>(rng.next());
      // 4096 bytes plus the padding block.
      const double blocks = static_cast<double>(block_input.size() / 64 + 1);
      metrics_.set("crypto.sha256_block_ns", time_per_call_ns(50, 15, [&] {
        keep(dmw::crypto::Sha256::hash(block_input));
      }) / blocks);

      // One agent hashing one auction's bulletin into its transcript.
      std::vector<std::vector<std::uint8_t>> payloads;
      for (const std::size_t size : postings)
        payloads.emplace_back(size, static_cast<std::uint8_t>(size));
      bulletin_absorb_us_ = 1e-3 * time_per_call_ns(5, 15, [&] {
        dmw::crypto::Transcript transcript("perfbench");
        std::uint64_t from = 0;
        for (const auto& payload : payloads) {
          transcript.append_u64("from", from++ % w_.n);
          transcript.append_u64("kind", 2);
          transcript.append_bytes("payload", payload);
        }
        keep(transcript.digest());
      });
    }

    {
      DMW_SPAN("bench/probe/numeric");
      const typename G::Scalar s1 = g.random_nonzero_scalar(rng);
      const typename G::Scalar s2 = g.random_nonzero_scalar(rng);
      const auto base = g.pow(g.z1(), s1);
      // Dependent chains: the counted multiplications are mostly ladders
      // and running products in the Montgomery domain.
      auto x = g.to_dom(base);
      const auto y = g.to_dom(g.pow(g.z2(), s2));
      metrics_.set("numeric.mul_ns", time_per_call_ns(20000, 15, [&] {
        x = g.dom_mul(x, y);
      }));
      keep(x);
      std::vector<typename G::Scalar> exponents(64);
      for (auto& e : exponents) e = g.random_scalar(rng);
      std::size_t next = 0;
      auto acc = base;
      metrics_.set("numeric.pow_ns", time_per_call_ns(40, 15, [&] {
        acc = g.pow(acc, exponents[next++ % exponents.size()]);
      }));
      keep(acc);
      auto inv_arg = s1;
      metrics_.set("numeric.inv_ns", time_per_call_ns(400, 15, [&] {
        inv_arg = g.sadd(g.sinv(inv_arg), g.sone());
      }));
      keep(inv_arg);
      auto sum = s1;
      metrics_.set("numeric.add_ns", time_per_call_ns(20000, 15, [&] {
        sum = g.sadd(sum, s2);
      }));
      keep(sum);
    }

    {
      DMW_SPAN("bench/probe/net");
      dmw::proto::SharesMsg<G> msg;
      msg.task = 3;
      msg.shares = {g.random_scalar(rng), g.random_scalar(rng),
                    g.random_scalar(rng), g.random_scalar(rng)};
      const double bytes = static_cast<double>(msg.encode(g).size());
      metrics_.set("net.codec_ns_per_byte", time_per_call_ns(2000, 15, [&] {
        const auto wire = msg.encode(g);
        keep(dmw::proto::SharesMsg<G>::decode(g, wire));
      }) / bytes);
    }

    {
      DMW_SPAN("bench/probe/pool");
      dmw::ThreadPool pool(kWorkers, /*deterministic=*/false);
      const double epoch_ns = time_per_call_ns(200, 15, [&] {
        pool.parallel_for(w_.n, [](std::size_t) {});
      });
      metrics_.set("support.pool_epoch_us", 1e-3 * epoch_ns);
    }
  }

  void write_trace_outputs(const std::string& chrome) {
    if (opt_.out_dir.empty()) return;
    const std::string stem = opt_.out_dir + "/" + w_.name + "-seed" +
                             std::to_string(opt_.seed);
    write_file(stem + ".trace.json", chrome);
    write_file(stem + ".layers.json",
               "{\"host\": " + host_ + ", " + context_ +
                   ", \"metrics\": " + metrics_.json(kPerLayer) + "}\n");
  }

  static void write_file(const std::string& path, const std::string& content) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    DMW_REQUIRE_MSG(file != nullptr, "cannot open " + path + " for writing");
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);
    DMW_REQUIRE_MSG(written == content.size(), "short write to " + path);
  }

  void print_result() {
    const std::string metrics =
        opt_.trace ? metrics_.json(kPerLayer) : metrics_.json(kEndToEnd);
    std::printf("{\"host\": %s, \"context\": {%s}, \"correct\": %s, "
                "\"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                host_.c_str(), context_.c_str(),
                failed_ == 0 ? "true" : "false", attempted_, failed_,
                metrics.c_str());
    std::fflush(stdout);
  }

  const Workload& w_;
  const Options opt_;
  const int cpu_;
  const std::uint64_t request_base_;
  Outcome cold_outcome_;
  MetricSet metrics_;
  std::string host_, context_;
  std::size_t attempted_ = 0, failed_ = 0;
  double bulletin_absorb_us_ = 0;
  std::size_t share_plaintext_ = 0;
};

std::string list_metrics() {
  const auto list = [](const auto& specs) {
    std::string out = "[";
    bool first = true;
    for (const auto& spec : specs) {
      out += std::string(first ? "" : ", ") + "{\"name\": \"" + spec.name +
             "\", \"unit\": \"" + spec.unit + "\"}";
      first = false;
    }
    return out + "]";
  };
  std::string workloads = "[";
  for (const auto& w : kWorkloads)
    workloads.append(workloads.size() > 1 ? ", \"" : "\"")
        .append(w.name)
        .append("\"");
  return "{\"workloads\": " + workloads + "], \"end_to_end\": " +
         list(kEndToEnd) + ", \"per_layer\": " + list(kPerLayer) + "}";
}

constexpr const char* kUsage = R"(perfbench_driver — one workload of perfbench

  --workload W   sealed-g64 | small-plain-g64
  --seed S       input seed (group, params, request stream)   (default 1)
  --seconds T    steady-window length                          (default 55)
  --trace 0|1    0: end-to-end metrics; 1: per-layer metrics    (default 0)
  --out-dir D    where --trace 1 writes its Chrome trace and layer JSON
  --list-metrics print the workload and metric names, then exit
)";

}  // namespace

int main(int argc, char** argv) {
  dmw::Logger::instance().set_level(dmw::LogLevel::kWarn);
  try {
    const dmw::Flags flags(argc, argv,
                           {"workload", "seed", "seconds", "trace", "out-dir",
                            "list-metrics!", "help!"});
    if (flags.get_bool("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    if (flags.get_bool("list-metrics")) {
      std::printf("%s\n", list_metrics().c_str());
      return 0;
    }
    const Workload* workload = find_workload(flags.get_string("workload", ""));
    DMW_REQUIRE_MSG(workload != nullptr, "unknown or missing --workload");
    Options options;
    options.seed = flags.get_u64("seed", 1);
    options.seconds =
        std::strtod(flags.get_string("seconds", "55").c_str(), nullptr);
    DMW_REQUIRE_MSG(options.seconds > 0, "--seconds must be positive");
    const std::uint64_t trace = flags.get_u64("trace", 0);
    DMW_REQUIRE_MSG(trace <= 1, "--trace must be 0 or 1");
    options.trace = trace == 1;
    options.out_dir = flags.get_string("out-dir", "");
    const int cpu = pin_to_one_cpu();
    return Bench<dmw::num::Group64>(*workload, options, cpu).run();
  } catch (const std::exception& error) {
    DMW_ERROR() << error.what() << " (run with --help for usage)";
    return 1;
  }
}
