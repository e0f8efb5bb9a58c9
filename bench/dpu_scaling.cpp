// Abl-B: tasklet scaling on one DPU. The UPMEM pipeline dispatches one
// instruction per cycle and a tasklet can re-issue only every 11 cycles,
// so kernel time should fall ~linearly up to 11 tasklets and plateau
// after - the law that makes 24-tasklet DPUs worth feeding.
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Tasklet scaling of the WFA kernel on one DPU");
  usize pairs = 0;
  double error_rate = 0;
  std::string json;
  try {
    pairs = static_cast<usize>(
        cli.get_int("pairs", 1536, "pairs on the benched DPU"));
    error_rate = cli.get_double("error-rate", 0.02, "edit-distance threshold");
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_dpu_scaling: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const seq::ReadPairSet batch = seq::fig1_dataset(pairs, error_rate, 0xDB2);

  std::cout << "Abl-B: WFA kernel time vs tasklets (one DPU, "
            << with_commas(pairs) << " pairs, E=" << error_rate * 100
            << "%)\n\n";
  std::cout << strprintf("  %-9s %14s %12s %18s\n", "tasklets", "kernel",
                         "speedup", "pipeline state");
  std::cout << "  " << std::string(58, '-') << "\n";

  BenchReport report("dpu_scaling");
  report.set_param("pairs", static_cast<i64>(pairs));
  report.set_param("error_rate", error_rate);

  double t1 = 0;
  for (usize tasklets = 1; tasklets <= 24; ++tasklets) {
    pim::PimOptions options;
    options.system = upmem::SystemConfig::tiny(1);
    options.nr_tasklets = tasklets;
    pim::PimBatchAligner aligner(options);
    const pim::PimBatchResult result =
        aligner.align_batch(batch, align::AlignmentScope::kFull);
    const double seconds = result.timings.kernel_seconds;
    if (tasklets == 1) t1 = seconds;
    report.add_metric(strprintf("kernel_seconds_t%zu", tasklets), seconds,
                      "s");
    if (tasklets == 24) report.add_metric("speedup_t24", t1 / seconds, "x");
    std::cout << strprintf("  %-9zu %14s %11.2fx %18s\n", tasklets,
                           format_seconds(seconds).c_str(), t1 / seconds,
                           tasklets < 11 ? "latency-bound" : "saturated");
  }
  std::cout << "\nExpected: near-linear gains to 11 tasklets (revolver"
               " pipeline re-issue), plateau beyond.\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
