// bench_parallel: scaling trajectory of the task-parallel auction engine.
//
// Emits BENCH_parallel.json with wall-clock seconds for full honest DMW runs
// on the 256-bit production-shaped group (250-bit p, 160-bit q — the
// bench_crypto fixture), sweeping m in {8, 32, 128} tasks across 1/2/4/8
// worker threads, each compared against the sequential ProtocolRunner
// baseline. Every parallel Outcome is checked for bit-identity against the
// sequential one before its timing is reported — a run that diverged would
// be measuring a different protocol.
//
// hardware_concurrency is recorded alongside the numbers: on a single-core
// host every speedup is honestly ~1.0x (the engine adds no overhead but has
// no cores to scale onto); the CI perf-regression job runs this on multi-core
// runners and uploads the artifact with the real scaling curve.
//
// Usage: bench_parallel [--out FILE] [--quick] [--stdout] [--threads N]
//   --threads N   sweep only N workers (0 = auto-detect hardware_concurrency)
#include <cstdio>
#include <string>
#include <vector>

#include "dmw/parallel.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group256;

/// Seconds elapsed on the tracer's run-relative clock (the one timing
/// source the codebase keeps — see the dmwlint raw-clock rule).
double elapsed_s(std::int64_t begin_ns) {
  return static_cast<double>(dmw::trace::Tracer::instance().now_ns() -
                             begin_ns) *
         1e-9;
}

constexpr std::size_t kAgents = 6;
constexpr std::uint64_t kSeed = 7;

bool outcomes_match(const dmw::proto::Outcome& a,
                    const dmw::proto::Outcome& b) {
  return a.aborted == b.aborted && a.schedule == b.schedule &&
         a.payments == b.payments && a.first_prices == b.first_prices &&
         a.second_prices == b.second_prices && a.rounds == b.rounds &&
         a.transcripts_consistent == b.transcripts_consistent &&
         a.traffic.p2p_equivalent_messages ==
             b.traffic.p2p_equivalent_messages &&
         a.traffic.p2p_equivalent_bytes == b.traffic.p2p_equivalent_bytes;
}

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  dmw::Flags flags(
      argc, argv,
      {"out", "quick!", "stdout!", "threads", "help!"});
  const std::string out_path = flags.get_string("out", "BENCH_parallel.json");
  const bool quick = flags.get_bool("quick");
  const bool to_stdout = flags.get_bool("stdout");
  if (flags.get_bool("help")) {
    std::puts("bench_parallel [--out FILE] [--quick] [--stdout] [--threads N]");
    return 0;
  }

  DMW_INFO() << "bench_parallel: hardware_concurrency="
             << dmw::ThreadPool::default_thread_count();

  const std::vector<std::size_t> task_counts =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{8, 32, 128};
  std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  if (flags.has("threads")) {
    // A single-point sweep; 0 auto-detects like `dmw_sim --threads 0`.
    std::size_t threads =
        static_cast<std::size_t>(flags.get_u64("threads", 0));
    if (threads == 0) {
      threads = dmw::ThreadPool::default_thread_count();
      DMW_INFO() << "bench_parallel: --threads 0 resolved to " << threads
                 << " workers (std::thread::hardware_concurrency)";
    }
    thread_counts.assign(1, threads);
  }

  Xoshiro256ss grng(1);
  // Same fixture as bench_crypto: 250-bit p (one limb bit reserved), 160-bit q.
  const Group256 g256 = Group256::generate(250, 160, grng);

  bool all_match = true;
  dmw::JsonWriter json;
  json.begin_object();
  json.key("bench").value("parallel");
  json.key("schema_version").value(std::uint64_t{2});
  json.key("group").value("GroupBig<4>: 250-bit p, 160-bit q (seed 1)");
  json.key("n").value(std::uint64_t{kAgents});
  json.key("hardware_concurrency")
      .value(std::uint64_t{dmw::ThreadPool::default_thread_count()});
  json.begin_array("configs");
  for (const std::size_t m : task_counts) {
    const auto params =
        dmw::proto::PublicParams<Group256>::make(g256, kAgents, m, 1, kSeed);
    Xoshiro256ss rng(kSeed * 31 + 1);
    const auto instance =
        dmw::mech::make_uniform_instance(kAgents, m, params.bid_set(), rng);

    const std::int64_t seq_begin = dmw::trace::Tracer::instance().now_ns();
    const auto reference = dmw::proto::run_honest_dmw(params, instance);
    const double sequential_s = elapsed_s(seq_begin);
    if (reference.aborted) {
      DMW_ERROR() << "bench_parallel: sequential baseline aborted at m=" << m;
      return 1;
    }

    json.begin_object();
    json.key("m").value(std::uint64_t{m});
    json.key("sequential_s").value(sequential_s);
    json.begin_array("runs");
    for (const std::size_t threads : thread_counts) {
      const std::int64_t begin = dmw::trace::Tracer::instance().now_ns();
      const auto outcome =
          dmw::proto::run_parallel_dmw(params, instance, threads);
      const double seconds = elapsed_s(begin);
      const bool match = outcomes_match(reference, outcome);
      all_match = all_match && match;
      json.begin_object();
      json.key("threads").value(std::uint64_t{threads});
      json.key("seconds").value(seconds);
      json.key("speedup").value(sequential_s / seconds);
      json.key("outcome_match").value(match);
      json.end_object();
      DMW_INFO() << "bench_parallel: m=" << m << " threads=" << threads
                 << " " << seconds << "s (seq " << sequential_s
                 << "s), match=" << match;
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("all_outcomes_match").value(all_match);
  json.end_object();

  const std::string text = json.str() + "\n";
  if (to_stdout) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      DMW_ERROR() << "bench_parallel: cannot open " << out_path;
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    DMW_INFO() << "bench_parallel: wrote " << out_path;
  }
  return all_match ? 0 : 1;
} catch (const std::exception& error) {
  DMW_ERROR() << error.what()
              << " (usage: bench_parallel [--out FILE] [--quick] [--stdout])";
  return 1;
}
