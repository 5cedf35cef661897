// Shared plumbing of the benchmark: clocks, best times, set-up repetition,
// the result report (metrics + correctness checks), in-memory spans, and
// the per-request layer accumulators the traced runs fill.
//
// Everything here lives outside the library: the benchmark times calls
// into the library's public entry points and never instruments src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/latency_histogram.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double peak_rss_mb();

/// Parsed command line of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;    ///< self-test sizes
  bool tamper = false;  ///< self-test: corrupt one expected counter
  std::string spans_dir;
};

/// Metrics by name, plus the correctness verdict of the run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a failed check is printed to stderr.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t requests, std::uint64_t failed = 0) {
    attempted_ += requests;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  /// The one-line JSON object the benchmark ends with.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The best time of each chunk of a timed section over all its reps.
///
/// Every rep of a closed-loop section does the same work chunk by chunk
/// (same inputs, same deterministic counters), so chunk i of one rep and
/// chunk i of the next are the same requests. On a shared host other
/// tenants slow the core for seconds at a time (see README.md, "Why best
/// times"); the fastest run of each chunk is the one they left alone, and
/// the sum of those is the section's time without them. A chunk is short
/// (milliseconds), so a run needs only brief quiet moments to see each
/// chunk at its best.
class BestTimes {
 public:
  void record(std::size_t chunk, double seconds);
  /// Sum of the chunks' best times: one rep of the section, seconds.
  double total_s() const;
  /// `requests` per rep over total_s().
  double rps(std::uint64_t requests) const;

 private:
  std::vector<double> best_;
};

/// Moves every thread of the process to a window of `width` of the CPUs the
/// process started on, the window moving on by one CPU at each next(); the
/// destructor gives every thread all of those CPUs back.
///
/// On a shared host another tenant slows one core at a time, for seconds
/// to minutes (see README.md, "Why best times"), and the kernel keeps a
/// busy thread on its core. Moving the threads between reps lets every
/// chunk of BestTimes run on every core, so a slow core cannot hold a
/// whole run down.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  int width_;
  std::size_t at_ = 0;
};

/// Runs the measured part of a workload for `budget_s` seconds: `set_up`
/// `setups` times, spread evenly over that time with the first before any
/// rep, and `rep` in between, at least three times, each on the next
/// window of a CpuRotation of `width` CPUs. `set_up` reports the seconds
/// its timed part took and must build the same inputs on every call, so
/// each rep does the same work whichever set-up it follows. Returns the
/// fastest set-up, for the reason BestTimes gives: spread over the run,
/// the set-ups get the same chance at a quiet moment as the reps. The
/// count is fixed, not a time budget, so that the heap the set-ups leave
/// behind, and with it peak_rss_mb, does not depend on how many fit.
double set_up_and_repeat(double budget_s, int width, int setups,
                         const std::function<double()>& set_up,
                         const std::function<void()>& rep);

/// Runs `rep` until `budget_s` seconds have passed and at least one rep
/// ran, each rep on the next window of a CpuRotation of `width` CPUs.
/// Returns the count.
int repeat_for(double budget_s, int width, const std::function<void()>& rep);

/// Coarse spans (chunk, barrier, recovery) kept in memory and written as
/// one JSON file when the run ends. Per-request timings never become
/// spans; they go to the LayerAcc histograms below.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}
  /// Opens a span; returns its id (the parent of spans opened under it).
  int open(const char* name, int parent = -1);
  void close(int id);
  std::size_t size() const { return spans_.size(); }
  /// Summed duration of every closed span called `name`, milliseconds.
  double total_ms(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start_us;
    double end_us;
  };
  double now_us() const;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Per-request timings of the core layer (KAryTree walk, splay serve),
/// one instance per serving thread, merged after the run.
struct LayerAcc {
  san::LatencyHistogram path_ns;   ///< KAryTree::path_info, sampled requests
  san::LatencyHistogram serve_ns;  ///< serve / access, unsampled requests
  std::uint64_t path_hops = 0;     ///< distance summed over sampled requests
  std::uint64_t depth_sum = 0;     ///< depth(u) + depth(v), sampled requests
  std::uint64_t serve_cost = 0;    ///< routing + rotations of timed serves
  std::uint64_t serve_rotations = 0;
  std::uint64_t requests = 0;      ///< every op served
  std::uint64_t hops = 0;          ///< routing over every op
  std::uint64_t rotations = 0;
  std::uint64_t edge_changes = 0;

  void merge(const LayerAcc& o);
};

/// Picks requests to time on their own: on average one in `every`, at
/// jittered gaps so the sample cannot alias with a periodic request
/// pattern (a scan alternates cheap and expensive requests). The gap
/// sequence is fixed, so the same trace samples the same requests.
class Sampler {
 public:
  explicit Sampler(std::uint64_t every) : span_(2 * every - 1) {}
  bool operator()() {
    if (--left_ > 0) return false;
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    left_ = 1 + x_ % span_;
    return true;
  }

 private:
  std::uint64_t span_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t left_ = 1;
};

/// One request in 8 is a path_info sample; the others time serve alone.
/// Timing both on one request would let path_info's depth-memo repair
/// make the following serve look cheap.
inline constexpr std::uint64_t kPathSampleEvery = 8;

/// Adds the core-layer metrics of `acc` to `report`.
void report_core_layers(Report& report, const LayerAcc& acc);

/// Reports the trace overhead: the traced loop's throughput against the
/// untraced one on the same inputs, `requests` per rep, from the best
/// times of each.
void report_trace_overhead(Report& report, std::uint64_t requests,
                           const BestTimes& untraced, const BestTimes& traced);

/// Provenance line printed before the result: host, build, seed, threads.
std::string provenance_json(const RunArgs& args, const std::string& threads);

}  // namespace perfbench
