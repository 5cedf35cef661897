#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/executor.hpp"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Round-trip formatting: every digit the measurement has.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void BestTimes::record(std::size_t chunk, double seconds) {
  if (chunk >= best_.size()) best_.resize(chunk + 1, seconds);
  best_[chunk] = std::min(best_[chunk], seconds);
}

double BestTimes::total_s() const {
  double s = 0.0;
  for (double b : best_) s += b;
  return s;
}

double BestTimes::rps(std::uint64_t requests) const {
  const double s = total_s();
  return s > 0.0 ? static_cast<double>(requests) / s : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

std::string Report::json() const {
  std::ostringstream js;
  js << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    js << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
       << number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  js << "}}";
  return js.str();
}

CpuRotation::CpuRotation(int width) : width_(width) {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  width_ = std::clamp(width, 1, std::max<int>(1, static_cast<int>(cpus_.size())));
}

namespace {

/// Best effort: a host that refuses affinity changes runs unmoved.
void pin_all_threads(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof mask, &mask);
  }
  closedir(dir);
}

}  // namespace

void CpuRotation::next() {
  if (static_cast<int>(cpus_.size()) <= width_) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int i = 0; i < width_; ++i)
    CPU_SET(cpus_[(at_ + static_cast<std::size_t>(i)) % cpus_.size()], &mask);
  at_ = (at_ + 1) % cpus_.size();
  pin_all_threads(mask);
}

CpuRotation::~CpuRotation() {
  if (static_cast<int>(cpus_.size()) <= width_) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus_) CPU_SET(c, &mask);
  pin_all_threads(mask);
}

int repeat_for(double budget_s, int width, const std::function<void()>& rep) {
  CpuRotation cpus(width);
  const auto t0 = Clock::now();
  int reps = 0;
  while (reps < 1 || seconds_between(t0, Clock::now()) < budget_s) {
    cpus.next();
    rep();
    ++reps;
  }
  return reps;
}

double set_up_and_repeat(double budget_s, int width, int setups,
                         const std::function<double()>& set_up,
                         const std::function<void()>& rep) {
  CpuRotation cpus(width);
  const auto t0 = Clock::now();
  cpus.next();
  double best = set_up();
  int done = 1, reps = 0;
  while (true) {
    const double elapsed = seconds_between(t0, Clock::now());
    cpus.next();
    if (done < setups && elapsed >= budget_s * done / setups) {
      best = std::min(best, set_up());
      ++done;
    } else if (reps < 3 || elapsed < budget_s) {
      rep();
      ++reps;
    } else {
      break;
    }
  }
  return best;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

int SpanLog::open(const char* name, int parent) {
  spans_.push_back({name, parent, now_us(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

double SpanLog::total_ms(const std::string& name) const {
  double us = 0.0;
  for (const Span& s : spans_)
    if (s.end_us >= 0.0 && name == s.name) us += s.end_us - s.start_us;
  return us / 1000.0;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"start_us\": "
        << number(s.start_us) << ", \"end_us\": " << number(s.end_us) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void LayerAcc::merge(const LayerAcc& o) {
  path_ns.merge(o.path_ns);
  serve_ns.merge(o.serve_ns);
  path_hops += o.path_hops;
  depth_sum += o.depth_sum;
  serve_cost += o.serve_cost;
  serve_rotations += o.serve_rotations;
  requests += o.requests;
  hops += o.hops;
  rotations += o.rotations;
  edge_changes += o.edge_changes;
}

void report_core_layers(Report& report, const LayerAcc& acc) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double path_ns = acc.path_ns.mean();
  const double serve_ns = acc.serve_ns.mean();
  const double path_total = path_ns * static_cast<double>(acc.path_ns.count());
  report.metric("core.path_info.ns", path_ns, "ns");
  report.metric("core.path_info.ns_per_hop",
                ratio(path_total, static_cast<double>(acc.path_hops)), "ns");
  report.metric("core.tree.depth_per_distance",
                ratio(static_cast<double>(acc.depth_sum),
                      static_cast<double>(acc.path_hops)),
                "count");
  report.metric("core.serve.ns", serve_ns, "ns");
  report.metric(
      "core.serve.ns_per_cost",
      ratio(serve_ns * static_cast<double>(acc.serve_ns.count()),
            static_cast<double>(acc.serve_cost)),
      "ns");
  // Rotation time: what a serve costs beyond its walk, per rotation.
  const double per_req_rot = ratio(static_cast<double>(acc.serve_rotations),
                                   static_cast<double>(acc.serve_ns.count()));
  report.metric("core.rotation.ns",
                per_req_rot > 0.0
                    ? std::max(0.0, serve_ns - path_ns) / per_req_rot
                    : 0.0,
                "ns");
  const double reqs = static_cast<double>(acc.requests);
  report.metric("core.serve.hops_per_req",
                ratio(static_cast<double>(acc.hops), reqs), "count");
  report.metric("core.serve.rotations_per_req",
                ratio(static_cast<double>(acc.rotations), reqs), "count");
  report.metric("core.serve.edge_changes_per_req",
                ratio(static_cast<double>(acc.edge_changes), reqs), "count");
}

void report_trace_overhead(Report& report, std::uint64_t requests,
                           const BestTimes& untraced, const BestTimes& traced) {
  const double untraced_rps = untraced.rps(requests);
  const double traced_rps = traced.rps(requests);
  report.metric("trace.untraced_rps", untraced_rps, "req/s");
  report.metric("trace.traced_rps", traced_rps, "req/s");
  report.metric("trace.overhead_frac",
                traced_rps > 0 ? untraced_rps / traced_rps - 1.0 : 0.0,
                "fraction");
}

std::string provenance_json(const RunArgs& args, const std::string& threads) {
  std::ostringstream js;
  js << "{\"provenance\": {\"workload\": \"" << json_escape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"nproc\": " << san::resolve_threads(0) << ", \"threads\": \""
     << json_escape(threads) << "\", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \""
     << json_escape(PERFBENCH_FLAGS) << "\", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"san_native_arch\": \""
     << json_escape(PERFBENCH_NATIVE_ARCH) << "\"}}";
  return js.str();
}

}  // namespace perfbench
