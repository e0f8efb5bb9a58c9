// Regenerates Fig. 1 of the paper: CPU (1/16/32/48/56 threads) vs PIM
// (Total, Kernel) time for aligning 5 million 100bp read pairs at
// edit-distance thresholds E = 2% and 4%, plus Observation 1: where the
// CPU roofline hits its memory floor and stops scaling.
//
//   ./fig1                    # paper-scale workload, default sim subset
//   ./fig1 --pairs 500000     # smaller batch
//   ./fig1 --sim-dpus 2560    # functionally simulate every DPU (slow)
//   ./fig1 --csv fig1.csv
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "model/fig1.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Reproduce Fig. 1 of 'High-throughput Pairwise Alignment with the "
      "Wavefront Algorithm using Processing-in-Memory' (Diab et al. 2022)");

  model::Fig1Options options;
  std::string csv;
  std::string json;
  try {
    options.pairs = static_cast<usize>(
        cli.get_int("pairs", 5'000'000, "read pairs to align"));
    options.simulate_dpus = static_cast<usize>(cli.get_int(
        "sim-dpus", 24, "DPUs to simulate functionally (of 2560)"));
    options.nr_tasklets = static_cast<usize>(
        cli.get_int("tasklets", 24, "tasklets per DPU"));
    options.full_alignment =
        !cli.get_bool("score-only", false, "skip CIGAR backtraces");
    options.cpu_repeats = static_cast<usize>(
        cli.get_int("cpu-repeats", 2, "CPU measurement repeats (min taken)"));
    options.seed = static_cast<u64>(cli.get_int("seed", 0x51A6, "RNG seed"));
    csv = cli.get_string("csv", "", "also write CSV here");
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_fig1: " << error.what() << "\n";
    return 2;
  }

  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  try {
    const model::Fig1Result result = model::run_fig1(options);
    result.print(std::cout);
    if (!csv.empty()) {
      result.write_csv(csv);
      std::cout << "\nCSV written to " << csv << "\n";
    }
    if (!json.empty()) {
      BenchReport report("fig1");
      report.set_param("pairs", static_cast<i64>(options.pairs));
      report.set_param("sim_dpus", static_cast<i64>(options.simulate_dpus));
      report.set_param("tasklets", static_cast<i64>(options.nr_tasklets));
      report.set_param("full_alignment",
                       options.full_alignment ? "true" : "false");
      report.set_param("seed", static_cast<i64>(options.seed));
      for (const model::Fig1GroupDetail& detail : result.details) {
        const int e_pct = static_cast<int>(detail.error_rate * 100);
        report.add_metric(strprintf("cpu_56t_seconds_e%d", e_pct),
                          detail.cpu_56t_seconds, "s");
        report.add_metric(strprintf("memory_floor_seconds_e%d", e_pct),
                          detail.memory_floor_seconds, "s");
        report.add_metric(strprintf("saturation_threads_e%d", e_pct),
                          static_cast<double>(detail.saturation_threads));
        report.add_metric(strprintf("pim_total_seconds_e%d", e_pct),
                          detail.pim.total_seconds(), "s");
        report.add_metric(strprintf("pim_kernel_seconds_e%d", e_pct),
                          detail.pim.kernel_seconds, "s");
        report.add_metric(strprintf("speedup_total_e%d", e_pct),
                          detail.speedup_total, "x");
        report.add_metric(strprintf("speedup_kernel_e%d", e_pct),
                          detail.speedup_kernel, "x");
        report.add_metric(strprintf("verified_pairs_e%d", e_pct),
                          static_cast<double>(detail.verified_pairs));
        // The simulated DPU work behind the PIM rows: exact counts for a
        // given seed and flags, so CI pins them.
        report.add_metric(strprintf("pim_kernel_cycles_e%d", e_pct),
                          static_cast<double>(detail.pim.kernel_cycles_max),
                          "cycles");
        report.add_metric(strprintf("pim_instructions_e%d", e_pct),
                          static_cast<double>(detail.pim.work.instructions));
        report.add_metric(strprintf("pim_dma_calls_e%d", e_pct),
                          static_cast<double>(detail.pim.work.dma_calls));
        report.add_metric(strprintf("pim_dma_bytes_e%d", e_pct),
                          static_cast<double>(detail.pim.work.dma_bytes),
                          "bytes");
      }
      report.add_metric("peak_rss_mb", peak_rss_mb(), "MiB");
      report.add_metric("minflt", minor_faults(), "faults");
      report.write(json);
      std::cout << "BenchReport written to " << json << "\n";
    }
  } catch (const Error& error) {
    std::cerr << "fig1: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
