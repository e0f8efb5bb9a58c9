// Measurement harness shared by the perfbench workloads: command-line
// arguments, host resource accounting (getrusage), quantiles, the result
// line, and an in-memory span tracer that exports Chrome trace-event JSON.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions; nothing inside the library is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using pimwfa::i64;
using pimwfa::u64;
using pimwfa::usize;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every workload to a smoke size (the self-test uses it).
  bool tiny = false;
  // Chrome trace-event JSON destination of a traced run ("" = none).
  std::string trace_out;
  // Directory for files a workload writes as input (stream-hybrid).
  std::string scratch = ".";
};

// Parses --workload --seed --seconds --trace --tiny --trace-out --scratch;
// throws std::invalid_argument on a malformed or unknown flag.
Args parse_args(int argc, char** argv);

// Process-wide getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  i64 minflt = 0;
  i64 maxrss_kb = 0;

  double cpu_s() const { return user_s + sys_s; }
};
Usage usage_now();

double seconds_between(Clock::time_point a, Clock::time_point b);

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// The benchmark's last stdout line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  // Drops every metric not named in `names` ({name, unit} pairs).
  void keep_only(const std::vector<std::pair<const char*, const char*>>& names);
  // Counts `count` attempted ops, `failed` of them failed.
  void ops(usize count, usize failed) {
    attempted_ += count;
    failed_ += failed;
  }
  // The failed-op share every workload reports (wrong result, error,
  // refusal, deadline expiry over attempted ops).
  double failed_frac() const;
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  usize attempted_ = 0;
  usize failed_ = 0;
};

// --- tracing ---------------------------------------------------------------

struct Span {
  std::string name;   // "<layer>.<call>", e.g. "pim.align_batch"
  std::string layer;  // self time is aggregated per layer
  Clock::time_point start{};
  Clock::time_point end{};
  u64 id = 0;
  u64 parent = 0;  // 0 = root
  u64 ref = 0;     // batch / request id
  u64 tid = 0;     // recording thread (dense ids)
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Switched between timed segments; other threads may read it meanwhile.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  u64 next_id();
  // Stores a finished span (thread-safe).
  void record(Span span);
  // Parent for a span opened now on this thread (innermost open scope).
  static u64 current_parent();
  static u64 thread_id();

  std::vector<Span> spans() const;
  // Self time per layer over the spans recorded on thread `tid`: a span's
  // duration minus the union of its children's intervals (clipped to the
  // span).
  std::map<std::string, double> self_seconds_by_layer(u64 tid) const;
  // Writes the spans as Chrome trace-event JSON (loads in Perfetto).
  void write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  u64 next_id_ = 1;
};

// RAII span: opens on construction when the tracer is enabled, records on
// destruction; nests through a per-thread stack of open scopes.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::string layer, u64 ref = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void arg(const std::string& key, double value);

 private:
  Tracer& tracer_;
  bool active_ = false;
  Span span_;
};

}  // namespace perfbench
