#include "pim_layers.hpp"

#include <algorithm>
#include <memory>

#include "seq/view.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;

constexpr usize kSetupRepeats = 3;

// Calls align_batch inside a "pim.align_batch" span that carries the
// call's pairs, CPU time, minor faults and simulated cycles.
pim::PimBatchResult traced_align_batch(Tracer& tracer,
                                       pim::PimBatchAligner& aligner,
                                       seq::ReadPairSpan batch,
                                       align::AlignmentScope scope,
                                       ThreadPool* pool, u64 ref) {
  SpanScope span(tracer, "pim.align_batch", "pim", ref);
  CallTimer timer;
  timer.start();
  pim::PimBatchResult result = aligner.align_batch(batch, scope, pool);
  timer.stop();
  span.arg("pairs", static_cast<double>(result.results.size()));
  span.arg("cpu_ms", timer.cpu_s() * 1e3);
  span.arg("minflt", static_cast<double>(timer.minflt()));
  span.arg("sim_cycles",
           static_cast<double>(result.timings.kernel_cycles_total));
  return result;
}

// Results missing or different from `expected` (score and CIGAR).
usize count_mismatches(const std::vector<align::AlignmentResult>& got,
                       const std::vector<align::AlignmentResult>& expected) {
  usize failed = expected.size() - std::min(expected.size(), got.size());
  for (usize p = 0; p < got.size() && p < expected.size(); ++p) {
    if (!(got[p] == expected[p])) ++failed;
  }
  return failed;
}

// Adds one call's exact counts into `sum` (total_seconds() accumulates in
// pipelined_total_seconds).
void accumulate(pim::PimTimings& sum, const pim::PimTimings& t) {
  sum.scatter_seconds += t.scatter_seconds;
  sum.kernel_seconds += t.kernel_seconds;
  sum.gather_seconds += t.gather_seconds;
  sum.pipelined_total_seconds += t.total_seconds();
  sum.kernel_cycles_total += t.kernel_cycles_total;
  sum.work.merge(t.work);
  sum.bytes_to_device += t.bytes_to_device;
  sum.bytes_from_device += t.bytes_from_device;
  sum.pairs += t.pairs;
  sum.tiled_pairs += t.tiled_pairs;
  sum.tile_segments += t.tile_segments;
}

// pim.*, upmem.*, model.* and tiling.* metrics of a traced run, from the
// spans and the first pass's counts over `pairs` materialized pairs.
void report_pim_layers(const Tracer& tracer, const pim::PimTimings& first_pass,
                       usize pairs, Report& report) {
  std::vector<double> run_ms;
  std::vector<double> run_cpu_ms;
  std::vector<double> minflt;
  double sim_cycles = 0;
  double run_s = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name != "pim.align_batch") continue;
    const double seconds = seconds_between(s.start, s.end);
    run_ms.push_back(seconds * 1e3);
    run_s += seconds;
    for (const auto& [key, value] : s.args) {
      if (key == "cpu_ms") run_cpu_ms.push_back(value);
      if (key == "minflt") minflt.push_back(value);
      if (key == "sim_cycles") sim_cycles += value;
    }
  }
  const auto count = [](auto value) { return static_cast<double>(value); };
  report.metric("pim.run_ms", median(run_ms), "ms");
  report.metric("pim.run_cpu_ms", median(run_cpu_ms), "ms");
  report.metric("pim.minflt_per_run", median(minflt), "faults");
  report.metric("upmem.sim_mcycles_per_host_s", sim_cycles / run_s / 1e6,
                "Mcycles/s");
  report.metric("upmem.sim_cycles", count(first_pass.kernel_cycles_total),
                "cycles");
  report.metric("upmem.sim_instructions", count(first_pass.work.instructions),
                "instructions");
  report.metric("upmem.bytes_to_device", count(first_pass.bytes_to_device),
                "bytes");
  report.metric("upmem.bytes_from_device", count(first_pass.bytes_from_device),
                "bytes");
  report.metric("model.scatter_s", first_pass.scatter_seconds, "s");
  report.metric("model.kernel_s", first_pass.kernel_seconds, "s");
  report.metric("model.gather_s", first_pass.gather_seconds, "s");
  report.metric("model.total_s", first_pass.pipelined_total_seconds, "s");
  report.metric("model.pairs_per_s",
                count(first_pass.pairs) / first_pass.pipelined_total_seconds,
                "pairs/s");
  report.metric("tiling.tiled_pairs", count(first_pass.tiled_pairs), "pairs");
  report.metric("tiling.segments_per_pair",
                count(first_pass.tile_segments) / count(pairs),
                "segments/pair");
}

}  // namespace

void run_pim_cycle(const Args& args, Tracer& tracer, Report& report,
                   const PimCycle& pim_cycle) {
  const std::vector<seq::ReadPairSet>& batches = pim_cycle.batches;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<pim::PimBatchAligner> aligner;
  report.metric("setup_s", median_setup_seconds(kSetupRepeats, [&] {
                  aligner.reset();
                  pool.reset();
                  pool = std::make_unique<ThreadPool>(pool_threads());
                  aligner =
                      std::make_unique<pim::PimBatchAligner>(pim_cycle.options);
                  aligner->align_batch(batches[0], pim_cycle.scope, pool.get());
                }),
                "s");

  pim::PimTimings first_pass;
  usize cycle_pairs = 0;
  std::vector<pim::PimBatchResult> results(batches.size());
  Cycle cycle;
  cycle.calls = batches.size();
  cycle.call = [&](usize i, usize) {
    results[i] = traced_align_batch(tracer, *aligner, batches[i],
                                    pim_cycle.scope, pool.get(), i);
  };
  cycle.check = [&](usize i, bool first) {
    const std::vector<align::AlignmentResult>& expected = pim_cycle.expected[i];
    if (first) {
      accumulate(first_pass, results[i].timings);
      cycle_pairs += expected.size();
    }
    report.ops(expected.size(), count_mismatches(results[i].results, expected));
    return expected.size();
  };
  const u64 copied_before = seq::bases_copied_counter().load();
  const LoopStats stats = closed_loop(args, tracer, cycle, args.trace ? 4 : 3);
  const u64 copied = seq::bases_copied_counter().load() - copied_before;

  if (!args.trace) {
    report_closed_loop(stats, report);
    return;
  }
  report_trace_common(tracer, stats, report);
  report_pim_layers(tracer, first_pass, cycle_pairs, report);
  report.metric("seq.bases_copied", static_cast<double>(copied), "bases");
}

}  // namespace perfbench
