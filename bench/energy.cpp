// Opt-2 (beyond the paper): energy comparison. The PIM literature (PrIM)
// argues PIM wins on energy as well as time; this bench converts the
// Fig. 1 timings into energy with nameplate powers:
//   UPMEM:  ~23.22 W per PIM DIMM (vendor figure) x 20 DIMMs, plus the
//           host socket only during transfers;
//   CPU:    2 x 105 W TDP (Xeon Gold 5120) + ~20 W DRAM, fully busy.
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "model/fig1.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Energy comparison derived from the Fig. 1 timings");
  model::Fig1Options options;
  std::string json;
  double pim_dimm_watts = 0;
  double host_watts = 0;
  double cpu_watts = 0;
  try {
    options.pairs = static_cast<usize>(
        cli.get_int("pairs", 5'000'000, "read pairs to align"));
    options.simulate_dpus = static_cast<usize>(
        cli.get_int("sim-dpus", 8, "DPUs simulated functionally"));
    json = cli.get_string("json", "", "write a BenchReport here");
    pim_dimm_watts = cli.get_double("pim-dimm-watts", 23.22, "");
    host_watts = cli.get_double("host-watts", 105.0, "");
    cpu_watts = cli.get_double("cpu-watts", 2 * 105.0 + 20.0, "");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_energy: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const double pim_watts =
      pim_dimm_watts * static_cast<double>(options.system.nr_dimms);

  const model::Fig1Result result = model::run_fig1(options);
  BenchReport report("energy");
  report.set_param("pairs", static_cast<i64>(options.pairs));
  report.set_param("sim_dpus", static_cast<i64>(options.simulate_dpus));
  report.set_param("pim_watts", pim_watts);
  report.set_param("cpu_watts", cpu_watts);

  std::cout << "Opt-2: energy for aligning " << with_commas(options.pairs)
            << " pairs (nameplate powers: PIM " << pim_watts << " W, CPU "
            << cpu_watts << " W)\n\n";
  std::cout << strprintf("  %-6s %-12s %12s %12s %14s\n", "E", "config",
                         "time", "energy", "pairs/J");
  std::cout << "  " << std::string(62, '-') << "\n";
  for (const auto& detail : result.details) {
    const double cpu_energy = detail.cpu_56t_seconds * cpu_watts;
    // PIM: DIMMs draw power for the kernel; the host socket works only
    // during the transfer phases.
    const double pim_energy =
        detail.pim.kernel_seconds * pim_watts +
        (detail.pim.scatter_seconds + detail.pim.gather_seconds) *
            (pim_watts + host_watts);
    struct Row {
      const char* config;
      double seconds;
      double joules;
    } rows[] = {
        {"CPU 56t", detail.cpu_56t_seconds, cpu_energy},
        {"PIM Total", detail.pim.total_seconds(), pim_energy},
    };
    for (const Row& row : rows) {
      std::cout << strprintf(
          "  %-6s %-12s %12s %11.1f J %14s\n",
          strprintf("%.0f%%", detail.error_rate * 100).c_str(), row.config,
          format_seconds(row.seconds).c_str(), row.joules,
          with_commas(static_cast<u64>(static_cast<double>(options.pairs) /
                                       row.joules))
              .c_str());
    }
    std::cout << strprintf("         PIM energy advantage: %.2fx\n",
                           cpu_energy / pim_energy);
    const int e_pct = static_cast<int>(detail.error_rate * 100);
    report.add_metric(strprintf("cpu_energy_joules_e%d", e_pct),
                      cpu_energy, "J");
    report.add_metric(strprintf("pim_energy_joules_e%d", e_pct),
                      pim_energy, "J");
    report.add_metric(strprintf("energy_advantage_e%d", e_pct),
                      cpu_energy / pim_energy, "x");
  }
  std::cout << "\nThe 20 PIM DIMMs draw ~2x the server's power but finish"
               " ~5x sooner, netting a\n~2x energy win end-to-end (and"
               " ~10x kernel-only, when the host socket idles).\n";
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
