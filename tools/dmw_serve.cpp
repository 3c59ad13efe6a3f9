// dmw_serve — marketplace server-mode driver.
//
// Turns the one-shot simulator into a service-shaped benchmark: a stream of
// auction requests (a workload file or a seeded generator with open-loop
// fixed/Poisson arrivals) dispatched continuously through one persistent
// ServeEngine — shared PublicParams (pseudonym powers + commitment tables
// built once) and one warmed ThreadPool. Reports auctions/sec throughput
// and p50/p95/p99/max latency, streams RunReport-over-interval snapshots
// through the dmwtrace metrics registry, and emits a final serve-report JSON
// with a stable schema (`"bench": "serve"`) that
// tools/check_bench_regression.py gates in CI.
//
// Examples:
//   dmw_serve --n 6 --m 4 --auctions 1000 --threads 4
//   dmw_serve --arrivals poisson --rate 200 --check-oneshot \
//       --report-out serve.json
//   dmw_serve --workload-file reqs.txt --snapshots-out intervals.json
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dmw/serve.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace {

using dmw::Flags;

constexpr const char* kUsage = R"(dmw_serve — streaming marketplace driver

options:
  --n N                agents/machines (default 6)
  --m M                tasks per auction (default 2)
  --c C                tolerated faulty agents (default 1)
  --seed S             master seed: public params + request seeds (default 1)
  --workload W         uniform | machine | task | worst   (default uniform)
  --backend B          64 | 256                            (default 64)
  --p-bits P           prime size for --backend 256        (default 128)
  --auctions K         generated request count             (default 1000)
  --warmup W           auctions excluded from steady-state stats (default 32;
                       must be < the request count)
  --workload-file F    read requests from F instead of generating them.
                       One request per line: "SEED [WORKLOAD]"; '#' comments
  --arrivals A         asap | fixed | poisson              (default asap).
                       fixed/poisson are open-loop at --rate: arrival times
                       are fixed up front, so latency includes queueing when
                       the engine lags the offered load
  --rate R             arrivals per second for fixed/poisson (default 100)
  --threads T          engine workers (0 = hardware concurrency; default 1)
  --check-oneshot      re-run every auction through the sequential one-shot
                       runner and require field-identical Outcomes
  --plain              disable AEAD-sealed private channels
  --interval K         snapshot cadence in auctions (default 256)
  --report-out FILE    write the serve-report JSON to FILE
  --snapshots-out FILE write interval snapshots (throughput, latency window,
                       metric-counter deltas) to FILE
  --telemetry-out FILE rewrite FILE with a Prometheus text-format dump of the
                       metrics registry (dmw_net_kind_* traffic counters,
                       latency histograms, ...) at every --interval boundary
                       and once at shutdown — point a node_exporter textfile
                       collector or a scrape-side cat at it
  --json               print the serve-report JSON to stdout
  --help               this text

exit status: 0 ok; 2 if any auction aborted or any one-shot check mismatched.

Reproduce request r (seed s) one-shot:
  dmw_sim --seed S --instance-seed $((s*3+1)) --secret-seed X --workload W
with S the master seed and X the per-request secret seed from the report.
)";

void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  DMW_REQUIRE_MSG(file != nullptr, "cannot open " + path + " for writing");
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  DMW_REQUIRE_MSG(written == content.size(), "short write to " + path);
}

/// Parse a workload file: one request per line, "SEED [WORKLOAD]", blank
/// lines and '#' comments skipped. Arrivals still come from the arrival
/// process (the file fixes *what* runs, the process fixes *when*).
std::vector<dmw::proto::AuctionRequest> read_workload_file(
    const std::string& path, dmw::proto::WorkloadKind default_kind,
    dmw::proto::ArrivalProcess& arrivals) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  DMW_REQUIRE_MSG(file != nullptr, "cannot open workload file " + path);
  std::vector<dmw::proto::AuctionRequest> stream;
  char line[256];
  std::int64_t at_ns = 0;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    std::string text(line);
    const std::size_t hash = text.find('#');
    if (hash != std::string::npos) text.resize(hash);
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) continue;
    const std::size_t last = text.find_last_not_of(" \t\r\n");
    text = text.substr(first, last - first + 1);

    dmw::proto::AuctionRequest request;
    request.id = stream.size();
    char workload[32] = {0};
    unsigned long long seed = 0;
    const int fields = std::sscanf(text.c_str(), "%llu %31s", &seed, workload);
    DMW_REQUIRE_MSG(fields >= 1, "bad workload line: " + text);
    request.seed = seed;
    request.workload = fields >= 2
                           ? dmw::proto::parse_workload(workload)
                           : default_kind;
    at_ns += arrivals.next_gap_ns();
    request.arrival_ns = at_ns;
    stream.push_back(request);
  }
  std::fclose(file);
  DMW_REQUIRE_MSG(!stream.empty(),
                  "workload file " + path + " has no requests");
  return stream;
}

/// One interval's worth of steady-state telemetry, assembled by the driver
/// between auction boundaries.
struct IntervalSnapshot {
  std::uint64_t index = 0;
  std::uint64_t first_auction = 0;
  std::uint64_t auctions = 0;
  double wall_s = 0;
  double throughput_per_s = 0;
  dmw::proto::LatencyRecorder::Summary latency;
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

void write_latency(dmw::JsonWriter& w,
                   const dmw::proto::LatencyRecorder::Summary& s) {
  w.key("latency_ms");
  w.begin_object();
  w.field("count", std::uint64_t{s.count});
  w.field("mean", s.mean_ms);
  w.field("p50", s.p50_ms);
  w.field("p95", s.p95_ms);
  w.field("p99", s.p99_ms);
  w.field("max", s.max_ms);
  w.end_object();
}

template <dmw::num::GroupBackend G>
int run_serve(G group, const Flags& flags) {
  using dmw::proto::ArrivalProcess;
  using dmw::proto::PublicParams;
  const std::size_t n = flags.get_u64("n", 6);
  const std::size_t m = flags.get_u64("m", 2);
  const std::size_t c = flags.get_u64("c", 1);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const std::string workload_name = flags.get_string("workload", "uniform");
  const auto workload = dmw::proto::parse_workload(workload_name);
  const std::string arrivals_name = flags.get_string("arrivals", "asap");
  const auto arrival_mode = ArrivalProcess::parse(arrivals_name);
  const double rate_hz = std::strtod(flags.get_string("rate", "100").c_str(),
                                     nullptr);
  const std::string report_out = flags.get_string("report-out", "");
  const std::string snapshots_out = flags.get_string("snapshots-out", "");
  const std::string telemetry_out = flags.get_string("telemetry-out", "");
  const std::uint64_t interval_len = flags.get_u64("interval", 256);
  DMW_REQUIRE_MSG(interval_len > 0, "--interval must be positive");

  auto params = PublicParams<G>::make(std::move(group), n, m, c, seed);

  // Interval snapshots and the Prometheus dump read the metrics registry;
  // turn the tracer on (real clock — latency is the product here) only when
  // one of them is requested.
  const bool metrics_wanted = !snapshots_out.empty() || !telemetry_out.empty();
  auto& tracer = dmw::trace::Tracer::instance();
  if (metrics_wanted) {
    params.set_tracing(true);
    tracer.set_clock_mode(dmw::trace::ClockMode::kReal);
    tracer.reset();
    tracer.set_enabled(true);
  }

  // The request stream: file or generator, arrivals fixed up front.
  ArrivalProcess arrivals(arrival_mode, rate_hz, seed);
  const std::string workload_file = flags.get_string("workload-file", "");
  const auto stream =
      workload_file.empty()
          ? dmw::proto::make_request_stream(flags.get_u64("auctions", 1000),
                                            seed, workload, arrivals)
          : read_workload_file(workload_file, workload, arrivals);
  const std::uint64_t total = stream.size();
  std::uint64_t warmup = flags.get_u64("warmup", 32);
  if (warmup >= total) warmup = total / 2;

  typename dmw::proto::ServeEngine<G>::Config config;
  config.threads = flags.get_u64("threads", 1);
  config.encrypt_channels = !flags.get_bool("plain");
  config.check_oneshot = flags.get_bool("check-oneshot");
  dmw::proto::ServeEngine<G> engine(params, config);

  dmw::proto::LatencyRecorder latencies(total);
  std::vector<IntervalSnapshot> snapshots;
  auto counters_before = dmw::trace::counters_snapshot();
  std::int64_t steady_begin_ns = 0;
  std::int64_t interval_begin_ns = 0;
  std::uint64_t interval_first = 0;

  const std::int64_t t0 = tracer.now_ns();
  for (const auto& request : stream) {
    // Open-loop pacing: spin until the request's arrival instant. A lagging
    // engine finds `now` already past `arrival` and falls straight through —
    // the backlog shows up as queueing delay in the latency, as it should.
    while (tracer.now_ns() - t0 < request.arrival_ns) { /* spin */ }
    const std::int64_t start_ns = tracer.now_ns();
    const auto& outcome = engine.run_auction(request);
    const std::int64_t end_ns = tracer.now_ns();
    if (outcome.aborted)
      DMW_WARN() << "auction " << request.id << " aborted";

    // asap has no meaningful arrival instant: latency is pure service time.
    const std::int64_t reference_ns =
        arrival_mode == ArrivalProcess::Mode::kAsap ? start_ns
                                                    : t0 + request.arrival_ns;
    latencies.record(end_ns - reference_ns);

    const std::uint64_t done = engine.auctions();
    if (done == warmup || (warmup == 0 && done == 1)) {
      steady_begin_ns = end_ns;
      interval_begin_ns = end_ns;
      interval_first = done;
    }
    if (done > warmup && (done - warmup) % interval_len == 0) {
      // Atomic-enough for a textfile collector: the whole registry is
      // rewritten in one short write between auction boundaries.
      if (!telemetry_out.empty())
        write_file(telemetry_out, dmw::trace::prometheus_text());
      IntervalSnapshot snap;
      snap.index = snapshots.size();
      snap.first_auction = interval_first;
      snap.auctions = done - interval_first;
      snap.wall_s = static_cast<double>(end_ns - interval_begin_ns) * 1e-9;
      snap.throughput_per_s =
          snap.wall_s > 0 ? static_cast<double>(snap.auctions) / snap.wall_s
                          : 0;
      snap.latency = latencies.summary(snap.auctions);
      auto counters_now = dmw::trace::counters_snapshot();
      snap.counter_deltas =
          dmw::trace::counters_delta(counters_now, counters_before);
      counters_before = std::move(counters_now);
      snapshots.push_back(std::move(snap));
      interval_begin_ns = end_ns;
      interval_first = done;
    }
  }
  const std::int64_t t_end = tracer.now_ns();
  if (warmup == 0) steady_begin_ns = t0;

  const double steady_wall_s =
      static_cast<double>(t_end - steady_begin_ns) * 1e-9;
  const std::uint64_t steady_auctions = total - warmup;
  const double throughput =
      steady_wall_s > 0 ? static_cast<double>(steady_auctions) / steady_wall_s
                        : 0;
  const auto steady_latency = latencies.summary(steady_auctions);

  // Final telemetry dump so short runs (and the shutdown state of long
  // ones) land in the file even when no interval boundary was crossed.
  if (!telemetry_out.empty())
    write_file(telemetry_out, dmw::trace::prometheus_text());
  if (metrics_wanted) tracer.set_enabled(false);

  // ---- Serve report ("bench": "serve") -------------------------------------
  dmw::JsonWriter w;
  w.begin_object();
  w.field("bench", "serve");
  w.field("schema_version", std::uint64_t{1});
  w.field("label", params.describe());
  w.field("n", std::uint64_t{n});
  w.field("m", std::uint64_t{m});
  w.field("c", std::uint64_t{c});
  w.field("seed", seed);
  w.field("workload", workload_name);
  w.field("arrivals", arrivals_name);
  if (arrival_mode != ArrivalProcess::Mode::kAsap) w.field("rate_hz", rate_hz);
  w.field("threads", std::uint64_t{engine.threads()});
  w.field("hardware_concurrency",
          std::uint64_t{dmw::ThreadPool::default_thread_count()});
  w.field("auctions", total);
  w.field("warmup", warmup);
  w.field("aborted_auctions", engine.aborted());
  w.field("checked_oneshot", config.check_oneshot);
  if (config.check_oneshot)
    w.field("oneshot_mismatches", engine.oneshot_mismatches());
  w.field("outcome_digest", engine.outcome_digest());
  w.field("wall_s", static_cast<double>(t_end - t0) * 1e-9);
  w.field("steady_wall_s", steady_wall_s);
  w.field("throughput_per_s", throughput);
  write_latency(w, steady_latency);
  w.field("intervals", std::uint64_t{snapshots.size()});
  w.end_object();

  if (!report_out.empty()) write_file(report_out, w.str() + "\n");
  if (flags.get_bool("json")) std::printf("%s\n", w.str().c_str());

  // ---- Interval snapshot stream --------------------------------------------
  if (!snapshots_out.empty()) {
    dmw::JsonWriter sw;
    sw.begin_object();
    sw.field("bench", "serve_intervals");
    sw.field("schema_version", std::uint64_t{1});
    sw.field("label", params.describe());
    sw.field("interval_auctions", interval_len);
    sw.begin_array("intervals");
    for (const auto& snap : snapshots) {
      sw.begin_object();
      sw.field("index", snap.index);
      sw.field("first_auction", snap.first_auction);
      sw.field("auctions", snap.auctions);
      sw.field("wall_s", snap.wall_s);
      sw.field("throughput_per_s", snap.throughput_per_s);
      write_latency(sw, snap.latency);
      sw.begin_array("counter_deltas");
      for (const auto& [name, delta] : snap.counter_deltas) {
        sw.begin_object();
        sw.field("name", name);
        sw.field("delta", delta);
        sw.end_object();
      }
      sw.end_array();
      sw.end_object();
    }
    sw.end_array();
    sw.end_object();
    write_file(snapshots_out, sw.str() + "\n");
  }

  if (!flags.get_bool("json")) {
    std::printf("%s\n", params.describe().c_str());
    std::printf("serve: %llu auctions (%llu warmup), %s arrivals, "
                "%zu worker(s)\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(warmup),
                arrivals_name.c_str(), engine.threads());
    std::printf("throughput: %.1f auctions/s over %.3fs steady state\n",
                throughput, steady_wall_s);
    std::printf("latency ms: mean %.3f | p50 %.3f | p95 %.3f | p99 %.3f | "
                "max %.3f\n",
                steady_latency.mean_ms, steady_latency.p50_ms,
                steady_latency.p95_ms, steady_latency.p99_ms,
                steady_latency.max_ms);
    std::printf("outcome digest: %s\n", engine.outcome_digest().c_str());
    if (config.check_oneshot)
      std::printf("one-shot identity: %llu mismatch(es)\n",
                  static_cast<unsigned long long>(engine.oneshot_mismatches()));
  }

  return engine.aborted() != 0 || engine.oneshot_mismatches() != 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  try {
    const Flags flags(argc, argv,
                      {"n", "m", "c", "seed", "workload", "backend", "p-bits",
                       "auctions", "warmup", "workload-file", "arrivals",
                       "rate", "threads", "check-oneshot!",
                       "plain!", "interval", "report-out", "snapshots-out",
                       "telemetry-out", "json!", "help!"});
    if (flags.get_bool("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    const auto backend = flags.get_u64("backend", 64);
    const auto seed = flags.get_u64("seed", 1);
    if (backend == 64) {
      return run_serve(dmw::num::Group64::test_group(), flags);
    }
    if (backend == 256) {
      const auto p_bits = static_cast<unsigned>(flags.get_u64("p-bits", 128));
      dmw::Xoshiro256ss rng(seed ^ 0xdeadbeef);
      auto group = dmw::num::Group256::generate(
          p_bits, std::max(64u, p_bits / 2), rng);
      return run_serve(std::move(group), flags);
    }
    DMW_ERROR() << "unknown backend " << backend << " (use 64 or 256)";
    return 1;
  } catch (const std::exception& error) {
    DMW_ERROR() << error.what() << " (run with --help for usage)";
    return 1;
  }
}
