// Ext-2 (the paper's stated future work): higher edit-distance
// thresholds. Sweeps E at fixed 100bp reads, reporting kernel time and
// the PIM-vs-CPU(56t) speedup trajectory: WFA work grows ~quadratically
// with E on both sides, but the memory-bound CPU floor does not, so the
// kernel advantage narrows while Total stays transfer-dominated.
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/scaling_model.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Edit-distance-threshold scaling (Fig.1 extension)");
  usize pairs_per_dpu = 0;
  usize modeled_pairs = 0;
  std::string json;
  try {
    pairs_per_dpu = static_cast<usize>(
        cli.get_int("pairs-per-dpu", 1024, "pairs per DPU"));
    modeled_pairs = static_cast<usize>(
        cli.get_int("pairs", 5'000'000, "modeled full batch size"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_ethresh: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const cpu::CpuSystemModel cpu_system;
  BenchReport report("ethresh");
  report.set_param("pairs_per_dpu", static_cast<i64>(pairs_per_dpu));
  report.set_param("pairs", static_cast<i64>(modeled_pairs));
  std::cout << "Ext-2: threshold scaling, 100bp pairs ("
            << with_commas(modeled_pairs) << " modeled pairs)\n\n";
  std::cout << strprintf("  %-6s %12s %12s %12s %12s %12s\n", "E", "kernel",
                         "PIM total", "CPU 56t", "total spdup", "kern spdup");
  std::cout << "  " << std::string(72, '-') << "\n";

  for (const double error_rate : {0.01, 0.02, 0.04, 0.08, 0.12, 0.16}) {
    const seq::ReadPairSet batch =
        seq::fig1_dataset(pairs_per_dpu, error_rate, 0xE7);

    // PIM: one DPU's share, extrapolated by the virtual batch machinery.
    pim::PimOptions options;
    options.system = upmem::SystemConfig::paper();
    options.simulate_dpus = 1;
    options.virtual_total_pairs = modeled_pairs;
    pim::PimBatchAligner pim_aligner(options);
    // One DPU's real share of the modeled batch:
    const auto [begin, end] = pim::PimBatchAligner::dpu_pair_range(
        modeled_pairs, options.system.nr_dpus(), 0);
    (void)begin;
    seq::ReadPairSet share;
    for (usize i = 0; i < end; ++i) share.add(batch[i % batch.size()]);
    const pim::PimBatchResult pim_result =
        pim_aligner.align_batch(share, align::AlignmentScope::kFull);

    // CPU: measured on the same per-DPU sample, projected.
    cpu::CpuBatchAligner cpu_aligner(cpu::CpuBatchOptions{align::Penalties::defaults(), 1});
    const cpu::CpuBatchResult measured =
        cpu_aligner.align_batch(batch, align::AlignmentScope::kFull);
    const double scale = static_cast<double>(modeled_pairs) /
                         static_cast<double>(batch.size());
    const cpu::ScalingModel model(
        cpu_system, measured.seconds * scale * cpu_system.host_core_ratio,
        cpu::estimate_batch_traffic(
            modeled_pairs,
            static_cast<u64>(
                static_cast<double>(measured.work.allocated_bytes) * scale)));
    const double cpu56 = model.project(cpu_system.max_threads());
    const double kernel = pim_result.timings.kernel_seconds;
    const double total = pim_result.timings.total_seconds();
    const int e_pct = static_cast<int>(error_rate * 100);
    report.add_metric(strprintf("pim_kernel_seconds_e%d", e_pct), kernel,
                      "s");
    report.add_metric(strprintf("pim_total_seconds_e%d", e_pct), total,
                      "s");
    report.add_metric(strprintf("speedup_total_e%d", e_pct), cpu56 / total,
                      "x");
    std::cout << strprintf("  %-6s %12s %12s %12s %11.2fx %11.2fx\n",
                           strprintf("%.0f%%", error_rate * 100).c_str(),
                           format_seconds(kernel).c_str(),
                           format_seconds(total).c_str(),
                           format_seconds(cpu56).c_str(), cpu56 / total,
                           cpu56 / kernel);
  }
  std::cout << "\nKernel time grows ~quadratically with E (WFA is O(ns));"
               " the transfer share, fixed\nby data volume, shrinks in"
               " relative terms - Total speedup converges toward Kernel\n"
               "speedup at high E.\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
