// Opt-1 (beyond the paper): 2-bit packed host<->DPU sequence transfers.
// Fig. 1's Total is dominated by moving ~1 GiB of ASCII bases each way;
// packing quarters the inbound volume for a small on-DPU unpack cost.
// Results stay bit-identical (asserted by the test suite).
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Packed-transfer optimization vs the paper's layout");
  usize modeled_pairs = 0;
  usize sim_dpus = 0;
  std::string json;
  try {
    modeled_pairs = static_cast<usize>(
        cli.get_int("pairs", 5'000'000, "modeled batch size"));
    sim_dpus = static_cast<usize>(
        cli.get_int("sim-dpus", 8, "DPUs simulated functionally"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_packed: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  std::cout << "Opt-1: 2-bit packed transfers (" << with_commas(modeled_pairs)
            << " pairs, 100bp, E=2%)\n\n";
  std::cout << strprintf("  %-8s %12s %12s %12s %12s %14s\n", "layout",
                         "scatter", "kernel", "gather", "total", "to-device");
  std::cout << "  " << std::string(76, '-') << "\n";

  const upmem::SystemConfig system = upmem::SystemConfig::paper();
  const auto [begin, end] = pim::PimBatchAligner::dpu_pair_range(
      modeled_pairs, system.nr_dpus(), sim_dpus - 1);
  (void)begin;
  const seq::ReadPairSet batch = seq::fig1_dataset(end, 0.02, 0xBAC);

  BenchReport report("packed");
  report.set_param("pairs", static_cast<i64>(modeled_pairs));
  report.set_param("sim_dpus", static_cast<i64>(sim_dpus));

  double plain_total = 0;
  for (const bool packed : {false, true}) {
    pim::PimOptions options;
    options.system = system;
    options.simulate_dpus = sim_dpus;
    options.virtual_total_pairs = modeled_pairs;
    options.packed_sequences = packed;
    pim::PimBatchAligner aligner(options);
    const pim::PimBatchResult result =
        aligner.align_batch(batch, align::AlignmentScope::kFull);
    const pim::PimTimings& t = result.timings;
    std::cout << strprintf(
        "  %-8s %12s %12s %12s %12s %14s\n", packed ? "packed" : "ascii",
        format_seconds(t.scatter_seconds).c_str(),
        format_seconds(t.kernel_seconds).c_str(),
        format_seconds(t.gather_seconds).c_str(),
        format_seconds(t.total_seconds()).c_str(),
        format_bytes(t.bytes_to_device).c_str());
    report.add_metric(
        strprintf("%s_total_seconds", packed ? "packed" : "ascii"),
        t.total_seconds(), "s");
    report.add_metric(
        strprintf("%s_scatter_seconds", packed ? "packed" : "ascii"),
        t.scatter_seconds, "s");
    if (!packed) {
      plain_total = t.total_seconds();
    } else {
      report.add_metric("packed_gain", plain_total / t.total_seconds(), "x");
      std::cout << strprintf("\n  end-to-end gain: %.2fx\n",
                             plain_total / t.total_seconds());
    }
  }
  std::cout << "\nPacking quarters the scatter bytes at the price of ~3"
               " DPU instructions per base\nto unpack - profitable because"
               " Fig. 1's Total is transfer-bound.\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
