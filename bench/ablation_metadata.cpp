// Ablation Abl-A: the paper's key design choice. WFA metadata for all 24
// tasklets does not fit in 64KB WRAM, so the paper stores it in MRAM and
// stages it through WRAM on demand. This bench quantifies the trade:
//
//   metadata-in-WRAM : fast per access, but the tasklet count is capped by
//                      WRAM capacity (rows marked "won't fit" fault);
//   metadata-in-MRAM : every access pays DMA staging, but all 24 tasklets
//                      run and the pipeline law wins.
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Metadata placement ablation (WRAM vs MRAM policy)");
  usize pairs = 0;
  double error_rate = 0;
  std::string json;
  try {
    pairs = static_cast<usize>(
        cli.get_int("pairs", 1536, "pairs on the benched DPU"));
    error_rate = cli.get_double("error-rate", 0.04, "edit-distance threshold");
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_ablation_metadata: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const seq::ReadPairSet batch = seq::fig1_dataset(pairs, error_rate, 0xAB1);
  const auto scope = align::AlignmentScope::kFull;

  BenchReport report("ablation_metadata");
  report.set_param("pairs", static_cast<i64>(pairs));
  report.set_param("error_rate", error_rate);

  std::cout << "Abl-A: metadata placement vs tasklet count ("
            << with_commas(pairs) << " pairs/DPU, 100bp, E="
            << error_rate * 100 << "%)\n\n";
  std::cout << strprintf("  %-9s %-10s %14s %16s %14s\n", "tasklets",
                         "metadata", "kernel", "pairs/s/DPU", "DMA bytes");
  std::cout << "  " << std::string(68, '-') << "\n";

  for (const pim::MetadataPolicy policy :
       {pim::MetadataPolicy::kWram, pim::MetadataPolicy::kMram}) {
    const char* name =
        policy == pim::MetadataPolicy::kWram ? "WRAM" : "MRAM";
    for (const usize tasklets : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
      pim::PimOptions options;
      options.system = upmem::SystemConfig::tiny(1);
      options.nr_tasklets = tasklets;
      options.policy = policy;
      // Bound the score cap to what the workload can reach so the WRAM
      // policy is judged on real usage, not on worst-case table sizing.
      options.max_score = 128;
      try {
        pim::PimBatchAligner aligner(options);
        const pim::PimBatchResult result = aligner.align_batch(batch, scope);
        const double seconds = result.timings.kernel_seconds;
        report.add_metric(
            strprintf("kernel_seconds_%s_t%zu", name, tasklets), seconds,
            "s");
        std::cout << strprintf(
            "  %-9zu %-10s %14s %16s %14s\n", tasklets, name,
            format_seconds(seconds).c_str(),
            with_commas(static_cast<u64>(static_cast<double>(pairs) / seconds))
                .c_str(),
            format_bytes(result.timings.work.dma_bytes).c_str());
      } catch (const HardwareFault&) {
        std::cout << strprintf(
            "  %-9zu %-10s %14s\n", tasklets, name,
            "won't fit (WRAM exhausted)");
      }
    }
  }
  std::cout << "\nThe MRAM policy pays ~DMA staging per access but unlocks"
               " the full tasklet count;\nthe WRAM policy runs out of the"
               " shared 64KB long before pipeline saturation (11+).\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
