// perfbench: the repository benchmark. Runs one workload for a fixed time
// and prints, as its last stdout line, one JSON object with the op
// counts and the metrics: the end-to-end metrics when --trace 0, the
// per-layer metrics (from a traced run) when --trace 1.
//
//   perfbench --workload pim-fig1 --seed 1 --seconds 10 --trace 0
//   perfbench --workload stream-hybrid --seed 2 --seconds 10 --trace 1
//             --trace-out trace.json
//
// Exit code 0 with a result line, 1 on a run-time error, 2 on bad flags.
#include <exception>
#include <iostream>
#include <stdexcept>

#include "workloads.hpp"

namespace {

using namespace perfbench;

// End-to-end metrics, reported by every workload's untraced run.
const std::vector<std::pair<const char*, const char*>> kEndToEndUnits = {
    {"ops_per_s", "ops/s"},
    {"cpu_us_per_op", "us/op"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

// Per-layer metrics a layer reports only on the workloads that use it;
// the rest read 0 (the layer did no work). Kept in step with
// BENCHMARK.json by the self-test.
const std::vector<std::pair<const char*, const char*>> kPerLayerUnits = {
    {"failed_frac", "ratio"},
    {"request_p50_ms", "ms"},
    {"request_p99_ms", "ms"},
    {"seq.read_ms", "ms"},
    {"seq.bases_copied", "bases"},
    {"pim.run_ms", "ms"},
    {"pim.run_cpu_ms", "ms"},
    {"pim.minflt_per_run", "faults"},
    {"upmem.sim_cycles", "cycles"},
    {"upmem.sim_instructions", "instructions"},
    {"upmem.bytes_to_device", "bytes"},
    {"upmem.bytes_from_device", "bytes"},
    {"upmem.sim_mcycles_per_host_s", "Mcycles/s"},
    {"model.scatter_s", "s"},
    {"model.kernel_s", "s"},
    {"model.gather_s", "s"},
    {"model.total_s", "s"},
    {"model.pairs_per_s", "pairs/s"},
    {"tiling.tiled_pairs", "pairs"},
    {"tiling.segments_per_pair", "segments/pair"},
    {"map.index_build_s", "s"},
    {"map.map_ms", "ms"},
    {"map.verify_ms", "ms"},
    {"map.seed_filter_ms", "ms"},
    {"map.candidates_per_read", "candidates"},
    {"map.filter_rejection", "ratio"},
    {"map.qualified_frac", "ratio"},
    {"map.recall", "ratio"},
    {"cpu.verify_pairs_per_s", "pairs/s"},
    {"wfa.peak_wavefront_bytes", "bytes"},
    {"service.admission_wait_p99_ms", "ms"},
    {"service.latency_p50_ms", "ms"},
    {"service.latency_p99_ms", "ms"},
    {"service.batches", "count"},
    {"service.batch_fill", "ratio"},
    {"service.peak_queued_pairs", "pairs"},
    {"service.peak_resident_pairs", "pairs"},
    {"engine.in_flight_mean", "batches"},
    {"hybrid.calibrations", "count"},
    {"hybrid.cpu_share_ms", "ms"},
    {"hybrid.cpu_fraction", "ratio"},
    {"gen.late_p99_ms", "ms"},
    {"host.sys_frac", "ratio"},
    {"host.minflt_per_op", "faults/op"},
    {"self.bench_frac", "ratio"},
    {"self.seq_frac", "ratio"},
    {"self.service_frac", "ratio"},
    {"self.pim_frac", "ratio"},
    {"self.map_frac", "ratio"},
    {"trace.accounted_frac", "ratio"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  Tracer tracer;
  Report report;
  try {
    if (args.workload == "pim-fig1") {
      run_pim_fig1(args, tracer, report);
    } else if (args.workload == "map-reads") {
      run_map_reads(args, tracer, report);
    } else if (args.workload == "stream-hybrid") {
      run_stream_hybrid(args, tracer, report);
    } else if (args.workload == "long-tiled") {
      run_long_tiled(args, tracer, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    if (args.trace) {
      report.metric("failed_frac", report.failed_frac(), "ratio");
      for (const auto& [name, unit] : kPerLayerUnits) {
        if (!report.has(name)) report.metric(name, 0.0, unit);
      }
      report.keep_only(kPerLayerUnits);
      if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
    } else {
      for (const auto& [name, unit] : kEndToEndUnits) {
        if (!report.has(name)) {
          throw std::logic_error(std::string("no value for ") + name);
        }
      }
      report.keep_only(kEndToEndUnits);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << args.workload << ": " << error.what()
              << "\n";
    return 1;
  }
  std::cout << report.json() << std::endl;
  return 0;
}
