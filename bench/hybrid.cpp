// Hybrid CPU+PIM dispatch vs either backend alone, on the paper-shaped
// transfer-bound configuration (full 2560-DPU system, virtual batch,
// 100bp reads at E=2%).
//
// While the PIM system aligns a batch the 56-thread CPU sits idle (and
// vice versa); the hybrid backend splits the batch proportionally to the
// two sides' modeled throughputs so neither idles. This bench pins the
// CPU model with a deterministic per-pair calibration (--cpu-t1) so the
// modeled numbers are runner-independent, verifies the hybrid's
// materialized results stay bit-identical to the pure PIM backend, and
// reports hybrid vs best-single-backend throughput; with --json it emits
// the BENCH_hybrid.json that the perf-smoke CI job gates on.
//
//   ./bench_hybrid
//   ./bench_hybrid --pairs 5000000 --sim-dpus 8
//   ./bench_hybrid --json BENCH_hybrid.json
#include <algorithm>
#include <iostream>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"
#include "upmem/config.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Hybrid CPU+PIM dispatch vs either backend alone on the paper-scale "
      "transfer-bound configuration");
  const usize modeled_pairs = static_cast<usize>(
      cli.get_int("pairs", 2'560'000, "modeled batch size"));
  const usize sim_dpus = static_cast<usize>(
      cli.get_int("sim-dpus", 8, "DPUs simulated functionally"));
  const usize tasklets =
      static_cast<usize>(cli.get_int("tasklets", 24, "tasklets per DPU"));
  const double error_rate =
      cli.get_double("error-rate", 0.02, "edit-distance threshold");
  // 8 us/pair on one paper core: the 56-thread projection then sits on the
  // memory-bandwidth floor of the roofline - the paper's scaling plateau -
  // at ~4.9x the synchronous PIM Total for the default batch.
  const double cpu_t1 = cli.get_double(
      "cpu-t1", 8e-6, "deterministic CPU seconds/pair (0 = measure host)");
  const bool pipeline = cli.get_bool(
      "pipeline", false, "run the PIM side (and baseline) pipelined");
  // On by default: the SIMD layer is bit-identical to the scalar loop, so
  // the only effect here is the calibrator pricing the CPU side with the
  // deterministic work-counter speedup + shrunken traffic floor.
  const bool cpu_simd = cli.get_bool(
      "cpu-simd", true, "route the CPU side through the SIMD layer");
  const bool score_only =
      cli.get_bool("score-only", false, "skip CIGAR backtraces");
  const std::string json =
      cli.get_string("json", "", "write a BenchReport here");
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
  options.pim_simulate_dpus = sim_dpus;
  options.pim_pipeline = pipeline;
  options.virtual_pairs = modeled_pairs;
  options.cpu_per_pair_seconds = cpu_t1;
  options.cpu_simd = cpu_simd;

  std::cout << "Hybrid CPU+PIM dispatch (" << with_commas(modeled_pairs)
            << " modeled pairs, 100bp, E=" << error_rate * 100 << "%, "
            << sim_dpus << " of " << system.nr_dpus()
            << " DPUs simulated)\n\n";

  align::HybridBatchAligner hybrid(options);
  const align::BatchResult result = hybrid.run(batch, scope);
  const align::BatchTimings& t = result.timings;
  const double best_alone = std::min(t.cpu_alone_seconds, t.pim_alone_seconds);
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
  row("CPU 56t alone", t.cpu_alone_seconds);
  row(pipeline ? "PIM alone (pipe)" : "PIM alone (sync)",
      t.pim_alone_seconds);
  row("hybrid", t.modeled_seconds);
  std::cout << strprintf(
      "\n  split: %s pairs on CPU (%.1f%%), %s on PIM; hybrid %.2fx the "
      "best single backend\n",
      with_commas(t.cpu_pairs).c_str(), t.cpu_fraction * 100,
      with_commas(t.pim_pairs).c_str(), best_alone / t.modeled_seconds);
  std::cout << strprintf(
      "  shares: CPU %s, PIM %s (scatter %s + kernel %s + gather %s)\n",
      format_seconds(t.cpu_modeled_seconds).c_str(),
      format_seconds(t.pim_modeled_seconds).c_str(),
      format_seconds(t.scatter_seconds).c_str(),
      format_seconds(t.kernel_seconds).c_str(),
      format_seconds(t.gather_seconds).c_str());

  // Bit-identity: the hybrid's materialized prefix (the simulated DPUs'
  // share of its PIM side) must equal the pure PIM backend on the same
  // pairs.
  align::BatchOptions pim_options = options;
  const align::BatchResult reference =
      align::backend_registry().create("pim", pim_options)->run(batch, scope);
  const usize verified =
      std::min(result.results.size(), reference.results.size());
  for (usize i = 0; i < verified; ++i) {
    if (!(result.results[i] == reference.results[i])) {
      std::cerr << "hybrid: result divergence vs the pim backend on pair "
                << i << "\n";
      return 1;
    }
  }
  std::cout << "  verified: " << with_commas(verified)
            << " materialized results bit-identical to the pim backend\n";

  // --- sharded zero-copy run --------------------------------------------
  // The engine path: the materialized batch carved into O(1) sub-views and
  // kept in flight concurrently against one hybrid backend (whose
  // calibration cache makes the per-shard probes one-time). run_sharded
  // needs fully materialized batches, so this section runs the hybrid on a
  // small fully-simulated system instead of the virtual paper system.
  align::BatchOptions sharded_options = options;
  sharded_options.virtual_pairs = 0;
  sharded_options.pim_simulate_dpus = 0;
  sharded_options.pim_dpus = 64;
  align::BatchEngineOptions engine_options;
  engine_options.backend = "hybrid";
  engine_options.batch = sharded_options;
  engine_options.max_in_flight = 2;
  engine_options.workers = 2;
  align::BatchEngine engine(engine_options);
  const align::BatchResult sharded = engine.run_sharded(batch, scope, 4);
  const align::BatchResult unsharded =
      align::backend_registry().create("hybrid", sharded_options)
          ->run(batch, scope);
  if (sharded.results.size() != batch.size() ||
      unsharded.results.size() != batch.size()) {
    std::cerr << "hybrid: sharded run materialized " << sharded.results.size()
              << " and unsharded " << unsharded.results.size() << " of "
              << batch.size() << " pairs\n";
    return 1;
  }
  for (usize i = 0; i < batch.size(); ++i) {
    if (!(sharded.results[i] == unsharded.results[i])) {
      std::cerr << "hybrid: sharded-vs-unsharded divergence on pair " << i
                << "\n";
      return 1;
    }
  }
  std::cout << "  sharded : 4 view shards bit-identical to the unsharded "
               "run, "
            << sharded.timings.bases_copied << " bases copied (hybrid run: "
            << t.bases_copied << ")\n";

  BenchReport report("hybrid");
  report.set_param("pairs", static_cast<i64>(modeled_pairs));
  report.set_param("sim_dpus", static_cast<i64>(sim_dpus));
  report.set_param("tasklets", static_cast<i64>(tasklets));
  report.set_param("error_rate", error_rate);
  report.set_param("cpu_t1", cpu_t1);
  report.set_param("pipeline", pipeline ? "true" : "false");
  report.set_param("cpu_simd", cpu_simd ? "true" : "false");
  report.set_param("full_alignment", score_only ? "false" : "true");
  report.add_metric("cpu_alone_seconds", t.cpu_alone_seconds, "s");
  report.add_metric("pim_alone_seconds", t.pim_alone_seconds, "s");
  report.add_metric("hybrid_seconds", t.modeled_seconds, "s");
  report.add_metric("hybrid_throughput", pairs_f / t.modeled_seconds,
                    "pairs/s");
  report.add_metric("cpu_fraction", t.cpu_fraction);
  report.add_metric("hybrid_vs_best_single_throughput",
                    best_alone / t.modeled_seconds, "x");
  report.add_metric("verified_pairs", static_cast<double>(verified));
  // Zero-copy tripwires: bases deep-copied to carve the hybrid split and
  // the engine's shards. The CI baseline pins both to exactly 0.
  report.add_metric("bases_copied", static_cast<double>(t.bases_copied));
  report.add_metric("sharded_bases_copied",
                    static_cast<double>(sharded.timings.bases_copied));
  // Measured, but runner-speed independent: CI caps it with a ceiling.
  report.add_metric("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }

  if (t.modeled_seconds > best_alone) {
    std::cerr << "hybrid: modeled time " << t.modeled_seconds
              << "s exceeds the best single backend (" << best_alone
              << "s)\n";
    return 1;
  }
  return 0;
}
