// The four perfbench workloads, and the closed loop three of them share.
#pragma once

#include <functional>
#include <thread>

#include "harness.hpp"

namespace perfbench {

void run_pim_fig1(const Args& args, Tracer& tracer, Report& report);
void run_map_reads(const Args& args, Tracer& tracer, Report& report);
void run_stream_hybrid(const Args& args, Tracer& tracer, Report& report);
void run_long_tiled(const Args& args, Tracer& tracer, Report& report);

// Thread-pool width of every workload: the host's cores, capped at 4.
usize pool_threads();

// Wall time and process resource usage between start() and stop().
class CallTimer {
 public:
  void start() {
    before_ = usage_now();
    t0_ = Clock::now();
  }
  void stop() {
    t1_ = Clock::now();
    after_ = usage_now();
  }
  double wall_s() const { return seconds_between(t0_, t1_); }
  double cpu_s() const { return after_.cpu_s() - before_.cpu_s(); }
  double sys_s() const { return after_.sys_s - before_.sys_s; }
  i64 minflt() const { return after_.minflt - before_.minflt; }

 private:
  Usage before_;
  Usage after_;
  Clock::time_point t0_{};
  Clock::time_point t1_{};
};

// A closed loop's fixed cycle of library calls.
struct Cycle {
  usize calls = 0;
  // Client threads sharing the calls of a pass (each takes the next call
  // as it finishes one). More than one spreads the work over the host's
  // cores, so one slow core moves a pass by its share, not all of it.
  usize clients = 1;
  // Layer of the span that covers a multi-client pass on the driving
  // thread (its calls are spanned on the client threads).
  std::string clients_layer;
  // Runs call `index` on client `client` and keeps its output for
  // `check`; a pass is timed over its calls only.
  std::function<void(usize index, usize client)> call;
  // After the pass (untimed, on the driving thread): checks call
  // `index`'s output and returns the ops it completed. `first_pass` is
  // true over the first pass, where the exact counts are taken.
  std::function<usize(usize index, bool first_pass)> check;
};

struct PassStats {
  bool traced = false;
  usize ops = 0;
  double call_s = 0;  // wall time of the pass's calls (checks excluded)
  double cpu_s = 0;   // process CPU over the same interval
  double sys_s = 0;
  i64 minflt = 0;
};

struct LoopStats {
  std::vector<PassStats> passes;
  i64 maxrss_kb = 0;  // process high-water mark at the end of the loop
};

// Runs the cycle pass after pass until `args.seconds` have elapsed and at
// least `min_passes` passes ran. A traced run alternates traced and
// untraced passes (so tracing overhead can be compared) and wraps each
// traced pass in a "bench.pass" span: its self time is the benchmark's
// own time.
LoopStats closed_loop(const Args& args, Tracer& tracer, const Cycle& cycle,
                      usize min_passes);

// End-to-end metrics of a closed loop: ops_per_s and CPU per op as
// medians over untraced passes, and peak RSS.
void report_closed_loop(const LoopStats& stats, Report& report);

// Per-layer metrics of a traced closed loop: report_self_times and
// report_host over the loop, and the tracing overhead (median untraced
// pass rate over median traced pass rate).
void report_trace_common(const Tracer& tracer, const LoopStats& stats,
                         Report& report);

// self.<layer>_frac: self time per layer, over the spans recorded on the
// driving thread (the one that records "bench.pass"), as a share of the
// traced wall time (the summed "bench.pass" spans); trace.accounted_frac
// is their sum, and the "bench" share is the benchmark's own time.
void report_self_times(const Tracer& tracer, Report& report);

// host.sys_frac and host.minflt_per_op over a timed region.
void report_host(double cpu_s, double sys_s, i64 minflt, usize ops,
                 Report& report);

// Repeats `setup` `times` times and returns the median wall seconds.
double median_setup_seconds(usize times, const std::function<void()>& setup);

}  // namespace perfbench
