// The benchmark's own arithmetic: tail-percentile choice, the steady-window
// plan, per-auction normalisation, span self time and the modeled-share
// reconciliation. Header-only and free of the library so test_stats.cpp can
// pin every formula the driver reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- Percentiles ------------------------------------------------------------

/// Samples a reported percentile must leave above it (choosing-metrics
/// guide: "the highest percentile that has at least ten samples beyond it").
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest rank of `pct` in a sample of `samples`: ceil(pct/100 * samples),
/// with a tolerance so 99.9% of 10000 is rank 9990, not 9991.
inline std::size_t nearest_rank(std::size_t samples, double pct) {
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(samples) - 1e-9);
  return rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at index
/// nearest_rank - 1, clamped to the sample. pct in (0, 100].
inline double sorted_percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = nearest_rank(sorted.size(), pct);
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `samples`.
inline std::size_t samples_beyond(std::size_t samples, double pct) {
  const std::size_t rank = nearest_rank(samples, pct);
  return rank >= samples ? 0 : samples - rank;
}

/// The highest percentile of a fixed ladder that leaves at least
/// kTailBeyond samples above it; 0 when even the median does not. A fixed
/// ladder (not 100*(1 - 10/samples)) keeps the reported level the same for
/// every run of a workload whose sample count clears the same rung.
inline double tail_percentile(std::size_t samples) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.5, 99.0,
                                       98.0,  95.0,  90.0, 75.0, 50.0};
  for (const double pct : kLadder)
    if (samples_beyond(samples, pct) >= kTailBeyond) return pct;
  return 0.0;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- Steady window ----------------------------------------------------------

/// The closed-loop run's phases: a fixed number of warmup auctions is
/// excluded (a count, not a time, so every build warms up on the same
/// requests); the window then runs until both its time target and its
/// minimum sample count are met, so a slower build extends the window
/// instead of reporting a tail with too few samples.
struct WindowPlan {
  std::size_t warmup_auctions = 0;
  double window_s = 0.0;         ///< measured window length target
  std::size_t min_auctions = 1;  ///< window sample-count floor

  /// Still warming up after `done` auctions?
  bool warming(std::size_t done) const { return done < warmup_auctions; }
  /// Window complete after `done` window auctions over `elapsed_s`?
  bool window_done(std::size_t done, double elapsed_s) const {
    return done >= min_auctions && elapsed_s >= window_s;
  }
};

/// Consecutive equal-count blocks the window is cut into, and how many of
/// them, the slowest by wall time per auction, the end-to-end figures are
/// taken over. On a shared VM the host switches every few seconds between
/// speed modes up to 1.6x apart (neighbours in the shared caches and
/// cores); CPU time per auction follows them. How much of a run the fast
/// modes cover differs from run to run, but the slow mode fills at least a
/// quarter of nearly every run, so the slowest quarter of the window reads
/// the same plateau run after run (README.md, "Host speed modes"). A change
/// to the program moves every block alike and shows in full; a slow path
/// that only some auctions hit weighs more, not less.
inline constexpr std::size_t kWindowBlocks = 64;
inline constexpr std::size_t kSlowBlocks = 16;

/// Per-auction record of a steady window, in request order.
struct WindowSamples {
  std::vector<double> latency_ms;  ///< service time of each auction
  std::vector<double> end_s;       ///< end of each auction, from window start
  std::vector<double> cpu_ms;      ///< process CPU during each auction
};

/// End-to-end figures of one steady window, normalised per auction. The
/// rate, percentile and CPU figures cover the slow blocks only; `samples`
/// and `mean_latency_ms` cover the whole window.
struct WindowFigures {
  double throughput_aps = 0;      ///< slow auctions / slow blocks' wall
  double latency_p50_ms = 0;
  double latency_tail_ms = 0;
  double tail_percentile = 0;     ///< the level latency_tail_ms reports
  std::size_t samples = 0;
  std::size_t slow_samples = 0;   ///< auctions in the slow blocks
  double mean_latency_ms = 0;
  double cpu_ms_per_auction = 0;  ///< slow CPU / slow auctions
};

/// Auctions the slow blocks hold at least, out of a window of `samples`.
inline std::size_t slow_floor(std::size_t samples) {
  return samples * kSlowBlocks / kWindowBlocks;
}

/// `tail_floor`: the window's guaranteed sample count (WindowPlan::
/// min_auctions). The tail level is chosen from the slow share of it, not
/// from the actual count, so a faster build that fits more auctions into
/// the window reports the same percentile.
inline WindowFigures window_figures(const WindowSamples& window,
                                    std::size_t tail_floor) {
  WindowFigures out;
  out.samples = window.latency_ms.size();
  if (out.samples == 0) return out;
  out.mean_latency_ms = mean(window.latency_ms);

  struct Block {
    std::size_t first, last;  ///< auction range, last exclusive
    double wall_s;
  };
  const std::size_t blocks = std::min(kWindowBlocks, out.samples);
  std::vector<Block> cut;
  double block_start_s = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = out.samples * b / blocks;
    const std::size_t last = out.samples * (b + 1) / blocks;
    cut.push_back({first, last, window.end_s[last - 1] - block_start_s});
    block_start_s = window.end_s[last - 1];
  }
  // Slowest per auction first; stable, so equal blocks keep window order.
  std::stable_sort(cut.begin(), cut.end(), [](const Block& a, const Block& b) {
    return a.wall_s * static_cast<double>(b.last - b.first) >
           b.wall_s * static_cast<double>(a.last - a.first);
  });
  cut.resize(std::max<std::size_t>(1, blocks * kSlowBlocks / kWindowBlocks));

  std::vector<double> slow;
  double wall_s = 0, cpu_ms = 0;
  for (const Block& block : cut) {
    wall_s += block.wall_s;
    for (std::size_t i = block.first; i < block.last; ++i) {
      slow.push_back(window.latency_ms[i]);
      cpu_ms += window.cpu_ms[i];
    }
  }
  out.slow_samples = slow.size();
  const auto count = static_cast<double>(slow.size());
  out.throughput_aps = wall_s > 0 ? count / wall_s : 0;
  out.cpu_ms_per_auction = cpu_ms / count;

  std::sort(slow.begin(), slow.end());
  out.latency_p50_ms = sorted_percentile(slow, 50.0);
  out.tail_percentile =
      tail_percentile(std::min(out.slow_samples, slow_floor(tail_floor)));
  out.latency_tail_ms = out.tail_percentile > 0
                            ? sorted_percentile(slow, out.tail_percentile)
                            : slow.back();
  return out;
}

/// total / auctions, 0 for an empty window.
inline double per_auction(double total, std::size_t auctions) {
  return auctions == 0 ? 0.0 : total / static_cast<double>(auctions);
}

// ---- Span self time ---------------------------------------------------------

/// One completed span on one thread (the fields of trace::SpanEvent the
/// computation needs).
struct SpanInterval {
  std::string name;
  int thread = -1;  ///< any key that is unique per thread
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time per span name: each span's duration minus the part of it its
/// direct children on the same thread cover. Spans on one thread nest
/// properly (RAII), so a stack sweep in begin order finds each parent.
inline std::map<std::string, std::int64_t> self_time_ns(
    std::vector<SpanInterval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanInterval& a, const SpanInterval& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;  // the parent first on a tie
            });
  std::map<std::string, std::int64_t> self;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanInterval& span = spans[i];
    while (!stack.empty() && (spans[stack.back()].thread != span.thread ||
                              spans[stack.back()].end_ns <= span.begin_ns))
      stack.pop_back();
    const std::int64_t duration = span.end_ns - span.begin_ns;
    self[span.name] += duration;
    if (!stack.empty()) self[spans[stack.back()].name] -= duration;
    stack.push_back(i);
  }
  return self;
}

// ---- Modeled-share reconciliation -------------------------------------------

/// Crypto work per auction priced by the layer probes: every sealed share
/// is sealed once and opened once, every channel key is one HKDF, and every
/// agent hashes the whole bulletin into its own transcript.
struct CryptoModel {
  double seals = 0, opens = 0, key_derivations = 0;
  double agents = 0;
  double seal_us = 0, open_us = 0, hkdf_us = 0;
  double bulletin_absorb_us = 0;  ///< one agent's transcript over one auction

  double ms() const {
    return (seals * seal_us + opens * open_us + key_derivations * hkdf_us +
            agents * bulletin_absorb_us) *
           1e-3;
  }
};

/// Modular arithmetic per auction priced by the probes. OpCounts count the
/// multiplications inside every exponentiation as `mul`s, so `pow` calls
/// carry no extra price here.
struct NumericModel {
  double mul = 0, inv = 0, add = 0;
  double mul_ns = 0, inv_ns = 0, add_ns = 0;

  double ms() const {
    return (mul * mul_ns + inv * inv_ns + add * add_ns) * 1e-6;
  }
};

/// Share of `measured_ms` the modeled crypto and numeric time leave
/// unexplained: 1 - (crypto + numeric) / measured. Negative when the model
/// prices more work than was measured.
inline double unattributed_frac(double crypto_ms, double numeric_ms,
                                double measured_ms) {
  if (measured_ms <= 0) return 0.0;
  return 1.0 - (crypto_ms + numeric_ms) / measured_ms;
}

}  // namespace perfbench
