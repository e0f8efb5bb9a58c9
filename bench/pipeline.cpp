// Pipelined vs synchronous PIM execution on the paper-scale system.
//
// Fig. 1's Total is transfer-dominated: scatter and gather each rival the
// kernel. Pipelined mode slices the batch into chunks and overlaps
// scatter(i+1) / kernel(i) / gather(i-1), so the steady state is governed
// by the slowest stage alone. This bench sweeps chunk counts, verifies
// results stay bit-identical to the synchronous path, and reports the
// modeled speedups; with --json it emits the BENCH_pipeline.json that the
// perf-smoke CI job gates on.
//
//   ./bench_pipeline
//   ./bench_pipeline --pairs 5000000 --sim-dpus 8
//   ./bench_pipeline --json BENCH_pipeline.json
#include <iostream>
#include <vector>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Chunked pipelined execution (scatter/kernel/gather overlap) vs the "
      "synchronous path on the paper-scale PIM system");
  usize modeled_pairs = 0;
  usize sim_dpus = 0;
  usize tasklets = 0;
  double error_rate = 0;
  bool score_only = false;
  std::string json;
  try {
    modeled_pairs = static_cast<usize>(
        cli.get_int("pairs", 2'560'000, "modeled batch size"));
    sim_dpus = static_cast<usize>(
        cli.get_int("sim-dpus", 8, "DPUs simulated functionally"));
    tasklets =
        static_cast<usize>(cli.get_int("tasklets", 24, "tasklets per DPU"));
    error_rate = cli.get_double("error-rate", 0.02, "edit-distance threshold");
    score_only = cli.get_bool("score-only", false, "skip CIGAR backtraces");
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_pipeline: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const upmem::SystemConfig system = upmem::SystemConfig::paper();
  const auto [first, last] = pim::PimBatchAligner::dpu_pair_range(
      modeled_pairs, system.nr_dpus(), sim_dpus - 1);
  (void)first;
  const seq::ReadPairSet batch = seq::fig1_dataset(last, error_rate, 0x91E);
  const auto scope = score_only ? align::AlignmentScope::kScoreOnly
                                : align::AlignmentScope::kFull;
  ThreadPool pool(4);

  pim::PimOptions options;
  options.system = system;
  options.nr_tasklets = tasklets;
  options.simulate_dpus = sim_dpus;
  options.virtual_total_pairs = modeled_pairs;

  std::cout << "Pipelined chunk execution (" << with_commas(modeled_pairs)
            << " modeled pairs, 100bp, E=" << error_rate * 100 << "%, "
            << sim_dpus << " of " << system.nr_dpus()
            << " DPUs simulated)\n\n";

  pim::PimBatchAligner sync_aligner(options);
  const pim::PimBatchResult sync_result =
      sync_aligner.align_batch(batch, scope, &pool);
  const double sync_total = sync_result.timings.total_seconds();
  const double pairs_f = static_cast<double>(modeled_pairs);

  std::cout << strprintf("  %-7s %12s %12s %12s %12s %10s %12s\n", "chunks",
                         "scatter", "kernel", "gather", "total", "speedup",
                         "steady");
  std::cout << "  " << std::string(84, '-') << "\n";
  const pim::PimTimings& st = sync_result.timings;
  std::cout << strprintf(
      "  %-7s %12s %12s %12s %12s %9.2fx %12s\n", "sync",
      format_seconds(st.scatter_seconds).c_str(),
      format_seconds(st.kernel_seconds).c_str(),
      format_seconds(st.gather_seconds).c_str(),
      format_seconds(sync_total).c_str(), 1.0, "-");

  BenchReport report("pipeline");
  report.set_param("pairs", static_cast<i64>(modeled_pairs));
  report.set_param("sim_dpus", static_cast<i64>(sim_dpus));
  report.set_param("tasklets", static_cast<i64>(tasklets));
  report.set_param("error_rate", error_rate);
  report.set_param("full_alignment", score_only ? "false" : "true");
  report.add_metric("sync_total_seconds", sync_total, "s");
  report.add_metric("sync_scatter_seconds", st.scatter_seconds, "s");
  report.add_metric("sync_kernel_seconds", st.kernel_seconds, "s");
  report.add_metric("sync_gather_seconds", st.gather_seconds, "s");
  report.add_metric("sync_throughput", pairs_f / sync_total, "pairs/s");

  bool all_faster = true;
  pim::PimTimings best;
  double best_total = sync_total;
  for (const usize chunks : {2u, 4u, 8u, 16u, 32u, 64u, 0u}) {
    pim::PimOptions pipe_options = options;
    pipe_options.pipeline = true;
    pipe_options.pipeline_chunks = chunks;
    pim::PimBatchAligner aligner(pipe_options);
    const pim::PimBatchResult result = aligner.align_batch(batch, scope, &pool);
    for (usize i = 0; i < result.results.size(); ++i) {
      if (!(result.results[i] == sync_result.results[i])) {
        std::cerr << "pipeline: result divergence vs synchronous path on "
                     "pair " << i << "\n";
        return 1;
      }
    }
    const pim::PimTimings& t = result.timings;
    const double total = t.total_seconds();
    const std::string label =
        chunks == 0 ? strprintf("auto=%zu", t.chunks)
                    : strprintf("%zu", t.chunks);
    std::cout << strprintf(
        "  %-7s %12s %12s %12s %12s %9.2fx %12s\n", label.c_str(),
        format_seconds(t.scatter_seconds).c_str(),
        format_seconds(t.kernel_seconds).c_str(),
        format_seconds(t.gather_seconds).c_str(),
        format_seconds(total).c_str(), sync_total / total,
        format_seconds(t.steady_state_seconds).c_str());
    if (t.chunks >= 2 && total >= sync_total) all_faster = false;
    if (chunks == 0) {
      report.add_metric("auto_chunks", static_cast<double>(t.chunks));
      report.add_metric("pipelined_total_seconds", total, "s");
      report.add_metric("pipelined_throughput", pairs_f / total, "pairs/s");
      report.add_metric("pipelined_vs_sync_throughput", sync_total / total);
      report.add_metric("fill_seconds", t.fill_seconds, "s");
      report.add_metric("drain_seconds", t.drain_seconds, "s");
      report.add_metric("steady_state_seconds", t.steady_state_seconds, "s");
      report.add_metric("overlap_saved_seconds", t.overlap_saved_seconds,
                        "s");
    } else {
      report.add_metric(strprintf("speedup_chunks_%zu", t.chunks),
                        sync_total / total, "x");
    }
    if (total < best_total) {
      best_total = total;
      best = t;
    }
  }

  if (best_total < sync_total) {
    std::cout << strprintf(
        "\n  best: %zu chunks, %s -> %s (%.2fx); steady state %s, "
        "fill %s + drain %s, %s of stage time hidden\n",
        best.chunks, format_seconds(sync_total).c_str(),
        format_seconds(best_total).c_str(), sync_total / best_total,
        format_seconds(best.steady_state_seconds).c_str(),
        format_seconds(best.fill_seconds).c_str(),
        format_seconds(best.drain_seconds).c_str(),
        format_seconds(best.overlap_saved_seconds).c_str());
  }

  // Measured, but runner-speed independent: CI caps both with a ceiling.
  report.add_metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add_metric("minflt", minor_faults(), "faults");
  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }
  if (!all_faster) {
    std::cerr << "pipeline: a >=2-chunk schedule failed to beat the "
                 "synchronous total\n";
    return 1;
  }
  return 0;
}
