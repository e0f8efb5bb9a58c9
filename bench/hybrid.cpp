// Hybrid CPU+PIM dispatch vs either backend alone, on the paper-shaped
// transfer-bound configuration (full 2560-DPU system, virtual batch,
// 100bp reads at E=2%).
//
// While the PIM system aligns a batch the 56-thread CPU sits idle (and
// vice versa); the hybrid backend splits the batch proportionally to the
// two sides' modeled throughputs so neither idles. This bench takes the
// split of the modeled batch from the hybrid's plan, runs its PIM share on
// a pim backend that simulates --sim-dpus DPUs and models its CPU share.
// It pins the CPU model with a deterministic per-pair calibration
// (--cpu-t1) so the modeled numbers are runner-independent, verifies the
// materialized results stay bit-identical to the pure PIM backend, and
// reports hybrid vs best-single-backend throughput; with --json it emits
// the BENCH_hybrid.json that the perf-smoke CI job gates on.
//
//   ./bench_hybrid
//   ./bench_hybrid --pairs 5000000 --sim-dpus 8
//   ./bench_hybrid --json BENCH_hybrid.json
#include <algorithm>
#include <iostream>

#include "align/hybrid.hpp"
#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "upmem/config.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Hybrid CPU+PIM dispatch vs either backend alone on the paper-scale "
      "transfer-bound configuration");
  usize modeled_pairs = 0;
  usize sim_dpus = 0;
  usize tasklets = 0;
  double error_rate = 0;
  double cpu_t1 = 0;
  bool pipeline = false;
  bool cpu_simd = false;
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
    // 8 us/pair on one paper core: the 56-thread projection then sits on
    // the memory-bandwidth floor of the roofline - the paper's scaling
    // plateau - at ~4.9x the synchronous PIM Total for the default batch.
    cpu_t1 = cli.get_double(
        "cpu-t1", 8e-6, "deterministic CPU seconds/pair (0 = measure host)");
    pipeline = cli.get_bool("pipeline", false,
                            "run the PIM side (and baseline) pipelined");
    // On by default: the SIMD layer is bit-identical to the scalar loop,
    // so the only effect here is the calibrator pricing the CPU side with
    // the deterministic work-counter speedup + shrunken traffic floor.
    cpu_simd = cli.get_bool("cpu-simd", true,
                            "route the CPU side through the SIMD layer");
    score_only = cli.get_bool("score-only", false, "skip CIGAR backtraces");
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_hybrid: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const upmem::SystemConfig system = upmem::SystemConfig::paper();
  if (sim_dpus < 1 || sim_dpus > system.nr_dpus() ||
      modeled_pairs < system.nr_dpus()) {
    std::cerr << "bench_hybrid: need --sim-dpus in [1, " << system.nr_dpus()
              << "] and --pairs >= " << system.nr_dpus() << "\n";
    return 2;
  }
  const auto [first, last] = pim::PimBatchAligner::dpu_pair_range(
      modeled_pairs, system.nr_dpus(), sim_dpus - 1);
  (void)first;
  const seq::ReadPairSet batch = seq::fig1_dataset(last, error_rate, 0x49B);
  const auto scope = score_only ? align::AlignmentScope::kScoreOnly
                                : align::AlignmentScope::kFull;

  align::BatchOptions options;
  options.pim_dpus = 0;  // the paper's 2560-DPU system
  options.pim_tasklets = tasklets;
  options.pim_pipeline = pipeline;
  options.cpu_per_pair_seconds = cpu_t1;
  options.cpu_simd = cpu_simd;

  std::cout << "Hybrid CPU+PIM dispatch (" << with_commas(modeled_pairs)
            << " modeled pairs, 100bp, E=" << error_rate * 100 << "%, "
            << sim_dpus << " of " << system.nr_dpus()
            << " DPUs simulated)\n\n";

  // The paper-scale hybrid: the split of the modeled batch comes from the
  // hybrid's plan; the PIM share runs on a pim backend that simulates only
  // the first --sim-dpus DPUs (its pairs are the ones materialized), and
  // the CPU share is modeled from the calibrated alone-time (the roofline
  // is the max of two terms linear in the pair count).
  const u64 copied_before =
      seq::bases_copied_counter().load(std::memory_order_relaxed);
  const align::HybridBatchAligner hybrid(options);
  const align::HybridBatchAligner::Plan plan =
      hybrid.plan(batch, scope, nullptr, modeled_pairs);
  pim::PimBatchResult pim_share;
  if (plan.pim_pairs > 0) {
    const usize pim_materialized = std::min(batch.size(), plan.pim_pairs);
    pim::PimOptions share_options = pim::PimOptions::from(options);
    share_options.simulate_dpus = sim_dpus;
    share_options.virtual_total_pairs =
        plan.pim_pairs > pim_materialized ? plan.pim_pairs : 0;
    pim::PimBatchAligner pim_side(share_options);
    pim_share = pim_side.align_batch(
        seq::ReadPairSpan(batch).first(pim_materialized), scope);
  }
  const pim::PimTimings& pt = pim_share.timings;
  const double pim_seconds = pt.total_seconds();
  const double cpu_seconds = plan.cpu_alone_seconds *
                             static_cast<double>(plan.cpu_pairs) /
                             static_cast<double>(plan.pairs);
  const double hybrid_seconds = std::max(cpu_seconds, pim_seconds);
  const u64 bases_copied =
      seq::bases_copied_counter().load(std::memory_order_relaxed) -
      copied_before;
  const double best_alone =
      std::min(plan.cpu_alone_seconds, plan.pim_alone_seconds);
  const double pairs_f = static_cast<double>(modeled_pairs);

  std::cout << strprintf("  %-18s %12s %12s\n", "config", "modeled",
                         "pairs/s");
  std::cout << "  " << std::string(46, '-') << "\n";
  const auto row = [&](const char* label, double seconds) {
    std::cout << strprintf("  %-18s %12s %12s\n", label,
                           format_seconds(seconds).c_str(),
                           with_commas(static_cast<u64>(pairs_f / seconds))
                               .c_str());
  };
  row("CPU 56t alone", plan.cpu_alone_seconds);
  row(pipeline ? "PIM alone (pipe)" : "PIM alone (sync)",
      plan.pim_alone_seconds);
  row("hybrid", hybrid_seconds);
  std::cout << strprintf(
      "\n  split: %s pairs on CPU (%.1f%%), %s on PIM; hybrid %.2fx the "
      "best single backend\n",
      with_commas(plan.cpu_pairs).c_str(), plan.cpu_fraction * 100,
      with_commas(plan.pim_pairs).c_str(), best_alone / hybrid_seconds);
  std::cout << strprintf(
      "  shares: CPU %s, PIM %s (scatter %s + kernel %s + gather %s)\n",
      format_seconds(cpu_seconds).c_str(), format_seconds(pim_seconds).c_str(),
      format_seconds(pt.scatter_seconds).c_str(),
      format_seconds(pt.kernel_seconds).c_str(),
      format_seconds(pt.gather_seconds).c_str());

  // Bit-identity: the hybrid's materialized prefix (the simulated DPUs'
  // share of its PIM side) must equal the pure PIM backend on the same
  // pairs, distributed over the whole modeled batch. Both sides must
  // materialize something, or the check is vacuous.
  pim::PimOptions pim_options = pim::PimOptions::from(options);
  pim_options.virtual_total_pairs = modeled_pairs;
  pim_options.simulate_dpus = sim_dpus;
  const align::BatchResult reference =
      pim::PimBatchAligner(pim_options).run(batch, scope);
  const std::vector<align::AlignmentResult>& results = pim_share.results;
  if (results.empty() || reference.results.empty()) {
    std::cerr << "hybrid: nothing to verify - the hybrid materialized "
              << results.size() << " results and the pim backend "
              << reference.results.size() << "\n";
    return 1;
  }
  const usize verified = std::min(results.size(), reference.results.size());
  for (usize i = 0; i < verified; ++i) {
    if (!(results[i] == reference.results[i])) {
      std::cerr << "hybrid: result divergence vs the pim backend on pair "
                << i << "\n";
      return 1;
    }
  }
  std::cout << "  verified: " << with_commas(verified)
            << " materialized results bit-identical to the pim backend; "
            << bases_copied << " bases copied\n";

  BenchReport report("hybrid");
  report.set_param("pairs", static_cast<i64>(modeled_pairs));
  report.set_param("sim_dpus", static_cast<i64>(sim_dpus));
  report.set_param("tasklets", static_cast<i64>(tasklets));
  report.set_param("error_rate", error_rate);
  report.set_param("cpu_t1", cpu_t1);
  report.set_param("pipeline", pipeline ? "true" : "false");
  report.set_param("cpu_simd", cpu_simd ? "true" : "false");
  report.set_param("full_alignment", score_only ? "false" : "true");
  report.add_metric("cpu_alone_seconds", plan.cpu_alone_seconds, "s");
  report.add_metric("pim_alone_seconds", plan.pim_alone_seconds, "s");
  report.add_metric("hybrid_seconds", hybrid_seconds, "s");
  report.add_metric("hybrid_throughput", pairs_f / hybrid_seconds, "pairs/s");
  report.add_metric("cpu_fraction", plan.cpu_fraction);
  report.add_metric("hybrid_vs_best_single_throughput",
                    best_alone / hybrid_seconds, "x");
  report.add_metric("verified_pairs", static_cast<double>(verified));
  // The split and the PIM share's simulated work: exact for a fixed seed,
  // so the CI baseline pins each.
  report.add_metric("cpu_pairs", static_cast<double>(plan.cpu_pairs));
  report.add_metric("pim_pairs", static_cast<double>(plan.pim_pairs));
  report.add_metric("pim_kernel_cycles",
                    static_cast<double>(pt.kernel_cycles_max), "cycles");
  report.add_metric("pim_bytes_to_device",
                    static_cast<double>(pt.bytes_to_device), "bytes");
  report.add_metric("pim_bytes_from_device",
                    static_cast<double>(pt.bytes_from_device), "bytes");
  // Zero-copy tripwire: bases deep-copied to carve the hybrid split. The
  // CI baseline pins it to exactly 0.
  report.add_metric("bases_copied", static_cast<double>(bases_copied));
  // Measured, but runner-speed independent: CI caps both with a ceiling.
  report.add_metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add_metric("minflt", minor_faults(), "faults");
  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }

  if (hybrid_seconds > best_alone) {
    std::cerr << "hybrid: modeled time " << hybrid_seconds
              << "s exceeds the best single backend (" << best_alone
              << "s)\n";
    return 1;
  }
  return 0;
}
