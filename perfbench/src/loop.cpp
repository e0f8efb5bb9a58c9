#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "workloads.hpp"

namespace perfbench {

usize pool_threads() {
  const usize cores = std::thread::hardware_concurrency();
  return std::clamp<usize>(cores, 1, 4);
}

LoopStats closed_loop(const Args& args, Tracer& tracer, const Cycle& cycle,
                      usize min_passes) {
  LoopStats stats;
  std::mutex error_mutex;
  std::exception_ptr error;  // the first call that threw
  const auto run_calls = [&](usize client, std::atomic<usize>& next) {
    try {
      for (usize i = next++; i < cycle.calls; i = next++) {
        cycle.call(i, client);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  const Clock::time_point begin = Clock::now();
  for (usize pass = 0;; ++pass) {
    PassStats ps;
    ps.traced = args.trace && pass % 2 == 0;
    tracer.set_enabled(ps.traced);
    {
      SpanScope span(tracer, "bench.pass", "bench", pass);
      std::atomic<usize> next{0};
      CallTimer section;
      section.start();
      if (cycle.clients <= 1) {
        run_calls(0, next);
      } else {
        SpanScope clients(tracer, cycle.clients_layer + ".clients",
                          cycle.clients_layer, pass);
        std::vector<std::thread> threads;
        for (usize c = 0; c < cycle.clients; ++c) {
          threads.emplace_back(run_calls, c, std::ref(next));
        }
        for (std::thread& t : threads) t.join();
      }
      section.stop();
      if (error) std::rethrow_exception(error);
      ps.call_s = section.wall_s();
      ps.cpu_s = section.cpu_s();
      ps.sys_s = section.sys_s();
      ps.minflt = section.minflt();
      for (usize i = 0; i < cycle.calls; ++i) {
        ps.ops += cycle.check(i, pass == 0);
      }
    }
    tracer.set_enabled(false);
    stats.passes.push_back(ps);
    if (pass + 1 >= min_passes &&
        seconds_between(begin, Clock::now()) >= args.seconds) {
      break;
    }
  }
  stats.maxrss_kb = usage_now().maxrss_kb;
  return stats;
}

void report_closed_loop(const LoopStats& stats, Report& report) {
  std::vector<double> rate;
  std::vector<double> cpu_us;
  for (const PassStats& ps : stats.passes) {
    if (ps.traced || ps.ops == 0) continue;
    rate.push_back(static_cast<double>(ps.ops) / ps.call_s);
    cpu_us.push_back(ps.cpu_s * 1e6 / static_cast<double>(ps.ops));
  }
  report.metric("ops_per_s", median(rate), "ops/s");
  report.metric("cpu_us_per_op", median(cpu_us), "us/op");
  report.metric("peak_rss_mb", static_cast<double>(stats.maxrss_kb) / 1024.0,
                "MiB");
}

void report_trace_common(const Tracer& tracer, const LoopStats& stats,
                         Report& report) {
  std::vector<double> traced_rate;
  std::vector<double> untraced_rate;
  double cpu = 0;
  double sys = 0;
  i64 minflt = 0;
  usize ops = 0;
  for (const PassStats& ps : stats.passes) {
    const double rate = static_cast<double>(ps.ops) / ps.call_s;
    (ps.traced ? traced_rate : untraced_rate).push_back(rate);
    cpu += ps.cpu_s;
    sys += ps.sys_s;
    minflt += ps.minflt;
    ops += ps.ops;
  }
  report_self_times(tracer, report);
  report.metric("trace.overhead_pct",
                (median(untraced_rate) / median(traced_rate) - 1.0) * 100.0,
                "%");
  report_host(cpu, sys, minflt, ops, report);
}

void report_self_times(const Tracer& tracer, Report& report) {
  double traced_wall = 0;
  u64 driving_tid = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name != "bench.pass") continue;
    traced_wall += seconds_between(s.start, s.end);
    driving_tid = s.tid;
  }
  const std::map<std::string, double> self =
      tracer.self_seconds_by_layer(driving_tid);
  double accounted = 0;
  for (const char* layer : {"bench", "seq", "service", "pim", "map"}) {
    const auto it = self.find(layer);
    const double share =
        it == self.end() || traced_wall <= 0 ? 0.0 : it->second / traced_wall;
    accounted += share;
    report.metric(std::string("self.") + layer + "_frac", share, "ratio");
  }
  report.metric("trace.accounted_frac", accounted, "ratio");
}

void report_host(double cpu_s, double sys_s, i64 minflt, usize ops,
                 Report& report) {
  report.metric("host.sys_frac", cpu_s > 0 ? sys_s / cpu_s : 0.0, "ratio");
  report.metric("host.minflt_per_op",
                ops > 0 ? static_cast<double>(minflt) / static_cast<double>(ops)
                        : 0.0,
                "faults/op");
}

double median_setup_seconds(usize times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (usize i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return median(seconds);
}

}  // namespace perfbench
