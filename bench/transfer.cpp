// Abl-C: the CPU-DPU transfer share. Fig. 1's Total-vs-Kernel gap is
// entirely host<->MRAM transfer time; this bench sweeps the system size
// and reports the modeled transfer bandwidth and the resulting share of
// end-to-end time for the Fig. 1 workload.
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "upmem/cost_model.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Host<->DPU transfer model sweep");
  usize pairs = 0;
  std::string json;
  try {
    pairs = static_cast<usize>(
        cli.get_int("pairs", 5'000'000, "read pairs in the batch"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_transfer: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  // Fig. 1 record sizes: 216 B in (lens + padded 100bp pair), 216 B out
  // (score + CIGAR), per pair.
  const u64 bytes_each_way = static_cast<u64>(pairs) * 216;

  std::cout << "Abl-C: transfer time vs system size ("
            << with_commas(pairs) << " pairs, " << format_bytes(bytes_each_way)
            << " each way)\n\n";
  std::cout << strprintf("  %-7s %-7s %14s %14s %14s\n", "ranks", "DPUs",
                         "bandwidth", "scatter", "gather");
  std::cout << "  " << std::string(62, '-') << "\n";

  BenchReport report("transfer");
  report.set_param("pairs", static_cast<i64>(pairs));
  report.set_param("bytes_each_way", static_cast<i64>(bytes_each_way));

  for (const usize ranks : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 40u}) {
    upmem::SystemConfig config = upmem::SystemConfig::paper();
    config.nr_dimms = (ranks + 1) / 2;
    config.ranks_per_dimm = ranks >= 2 ? 2 : 1;
    const upmem::CostModel model(config);
    const double bw = model.transfer_bandwidth(ranks);
    const double scatter = model.transfer_seconds(bytes_each_way, ranks);
    report.add_metric(strprintf("bandwidth_gbps_r%zu", ranks), bw / 1e9,
                      "GB/s");
    report.add_metric(strprintf("scatter_seconds_r%zu", ranks), scatter, "s");
    std::cout << strprintf("  %-7zu %-7zu %12.2f GB/s %13s %14s\n", ranks,
                           ranks * config.dpus_per_rank, bw / 1e9,
                           format_seconds(scatter).c_str(),
                           format_seconds(scatter).c_str());
  }
  std::cout << "\nBandwidth scales with ranks until the host interface"
               " saturates; at full scale the\ntransfers dominate Total"
               " (the paper's Kernel-vs-Total gap: 37.4x vs 4.87x at"
               " E=2%).\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
