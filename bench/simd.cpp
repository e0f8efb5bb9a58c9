// SIMD CPU layer vs the scalar WFA loop on the paper-shaped workload
// (100bp reads at threshold E).
//
// Two families of numbers, clearly separated:
//
//  - measured: wall-clock throughput of cpu::simd::align_range at every
//    dispatch level this build+host can run, plus the plain scalar
//    WfaAligner loop as the reference. Runner-dependent; reported for
//    eyeballing, never gated.
//  - modeled: the deterministic work-counter speedup from
//    cpu::simd::model_sample - the number the hybrid calibrator and
//    cpu-simd run() divide a cpu_per_pair_seconds override by, and the
//    one CI gates as simd_vs_scalar_throughput (same seed + config =>
//    same value on any runner).
//
// Every level's results are checked bit-identical (scores + CIGARs) to
// the scalar loop before anything is reported; a divergence exits 1.
//
//   ./bench_simd
//   ./bench_simd --pairs 20000 --error-rate 0.05
//   ./bench_simd --json BENCH_simd.json
#include <iostream>
#include <string>
#include <vector>

#include "align/result.hpp"
#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "cpu/scaling_model.hpp"
#include "cpu/simd/simd.hpp"
#include "seq/generator.hpp"
#include "wfa/wfa_aligner.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  using cpu::simd::SimdLevel;
  Cli cli(argc, argv);
  cli.set_description(
      "SIMD CPU layer vs the scalar WFA loop: measured wall throughput per "
      "dispatch level + the deterministic modeled speedup CI gates on");
  usize pairs = 0;
  double error_rate = 0;
  usize threshold = 0;
  bool score_only = false;
  u64 seed = 0;
  std::string json;
  try {
    pairs = static_cast<usize>(cli.get_int("pairs", 10000, "read pairs"));
    error_rate =
        cli.get_double("error-rate", 0.02, "edit-distance threshold E");
    threshold = static_cast<usize>(cli.get_int(
        "simd-threshold", 0, "fast-path edit threshold (0 = auto)"));
    score_only = cli.get_bool("score-only", false, "skip CIGAR backtraces");
    seed = static_cast<u64>(cli.get_int("seed", 0x51A6, "seed"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_simd: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const seq::ReadPairSet batch = seq::fig1_dataset(pairs, error_rate, seed);
  const align::Penalties penalties = align::Penalties::defaults();
  const auto scope = score_only ? align::AlignmentScope::kScoreOnly
                                : align::AlignmentScope::kFull;
  const cpu::simd::FastPathConfig config{threshold};

  std::cout << "SIMD dispatch sweep (" << with_commas(pairs)
            << " pairs, 100bp, E=" << error_rate * 100 << "%, compiled "
            << cpu::simd::level_name(cpu::simd::compiled_level())
            << ", host supports "
            << cpu::simd::level_name(cpu::simd::runtime_level()) << ")\n\n";

  // Scalar WFA loop: the reference both for wall time and bit-identity.
  std::vector<align::AlignmentResult> reference(batch.size());
  double scalar_loop_seconds = 0;
  {
    wfa::WfaAligner aligner{penalties};
    WallTimer timer;
    for (usize i = 0; i < batch.size(); ++i) {
      reference[i] = aligner.align(batch[i].pattern, batch[i].text, scope);
    }
    scalar_loop_seconds = timer.seconds();
  }

  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (cpu::simd::runtime_level() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);

  BenchReport report("simd");
  report.set_param("pairs", static_cast<i64>(pairs));
  report.set_param("error_rate", error_rate);
  report.set_param("simd_threshold", static_cast<i64>(threshold));
  report.set_param("full_alignment", score_only ? "false" : "true");
  report.set_param("compiled_level",
                   cpu::simd::level_name(cpu::simd::compiled_level()));
  report.set_param("runtime_level",
                   cpu::simd::level_name(cpu::simd::runtime_level()));

  const double pairs_f = static_cast<double>(pairs);
  std::cout << strprintf("  %-10s %12s %14s %10s %10s %10s\n", "level",
                         "measured", "pairs/s", "meas x", "model x",
                         "fast-path");
  std::cout << "  " << std::string(70, '-') << "\n";
  std::cout << strprintf(
      "  %-10s %12s %14s %10.2f %10s %10s\n", "wfa-loop",
      format_seconds(scalar_loop_seconds).c_str(),
      with_commas(static_cast<u64>(pairs_f / scalar_loop_seconds)).c_str(),
      1.0, "-", "-");

  double gated_speedup = 0;
  for (const SimdLevel level : levels) {
    const char* name = cpu::simd::level_name(level);

    std::vector<align::AlignmentResult> results(batch.size());
    cpu::simd::SimdStats stats;
    wfa::WfaCounters counters;
    u64 high_water = 0;
    WallTimer timer;
    cpu::simd::align_range(batch, 0, batch.size(), penalties, scope, level,
                           config, results, stats, counters, high_water);
    const double seconds = timer.seconds();

    for (usize i = 0; i < batch.size(); ++i) {
      if (results[i].score != reference[i].score ||
          results[i].cigar.ops() != reference[i].cigar.ops()) {
        std::cerr << "bench_simd: " << name
                  << " diverged from the scalar WFA loop on pair " << i
                  << " (score " << results[i].score << " vs "
                  << reference[i].score << ")\n";
        return 1;
      }
    }

    // The deterministic model: same inputs => same ratio on every runner.
    const cpu::simd::SpeedupModel model =
        cpu::simd::model_sample(batch, penalties, scope, config, level);
    if (level == cpu::simd::runtime_level()) gated_speedup = model.speedup;

    std::cout << strprintf("  %-10s %12s %14s %10.2f %10.2f %9.1f%%\n", name,
                           format_seconds(seconds).c_str(),
                           with_commas(static_cast<u64>(pairs_f / seconds))
                               .c_str(),
                           scalar_loop_seconds / seconds, model.speedup,
                           stats.fast_path_fraction() * 100);

    const std::string prefix = std::string("measured_") + name;
    report.add_metric(prefix + "_seconds", seconds, "s");
    report.add_metric(prefix + "_speedup", scalar_loop_seconds / seconds,
                      "x");
    report.add_metric(std::string("modeled_") + name + "_speedup",
                      model.speedup, "x");
    if (level == cpu::simd::runtime_level()) {
      report.add_metric("fast_path_hit_rate", stats.fast_path_fraction());
      report.add_metric("traffic_bytes_per_pair", model.traffic_bytes_per_pair,
                        "B");
      report.add_metric("scalar_traffic_bytes_per_pair",
                        cpu::TrafficModel{}.per_pair_fixed_bytes, "B");
    }
  }

  // The gated metric: the best level this runner can execute, priced by
  // the deterministic work-counter model.
  report.add_metric("simd_vs_scalar_throughput", gated_speedup, "x");
  std::cout << strprintf(
      "\n  verified: %s results bit-identical to the scalar WFA loop at "
      "every level\n  gated   : simd_vs_scalar_throughput %.3fx (modeled, "
      "%s)\n",
      with_commas(pairs).c_str(), gated_speedup,
      cpu::simd::level_name(cpu::simd::runtime_level()));

  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }
  return 0;
}
