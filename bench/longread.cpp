// Long-read unlock: BiWFA kUltralow memory scaling and cross-DPU tiling.
//
// Sweeps pair length 1k -> 1M and reports, per length:
//   - kUltralow peak live wavefront bytes (measured) vs the kHigh
//     retention model (the O(s^2) footprint an exact retained run needs;
//     measured too where it is small enough to actually run),
//   - the peak-memory ratio CI gates (>= 10x at 100k bases),
//   - CPU kUltralow throughput,
//   - modeled throughput of the tiled PIM path (host-planned segments
//     stitched back; see pim/tiling.hpp),
//   - whether that tiled result equals a kUltralow alignment at the
//     default base budget, score and CIGAR (tiled_matches_ultralow: 1 or
//     0; CI pins it to 1), and
//   - the measured host time of planning those segments on a pool of
//     hardware_concurrency() workers (tile_plan_seconds; ungated).
//
// A second table (the paper's stated future work, longer reads) runs the
// untiled PIM kernel from 100 bases to 100k at E=2% and a constant 160k
// bases per DPU: the largest tasklet count whose WRAM buffers still fit
// untiled, kernel time, bases/s/DPU and cells/pair, next to the host
// kUltralow peak of the same pairs. Its JSON keys carry an untiled_
// prefix.
#include <algorithm>
#include <iostream>
#include <thread>

#include "align/penalties.hpp"
#include "align/verify.hpp"
#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "pim/host.hpp"
#include "pim/tiling.hpp"
#include "seq/generator.hpp"
#include "wfa/wfa_aligner.hpp"

using namespace pimwfa;

namespace {

// Read-length scaling of the untiled PIM kernel, with tiling off on
// purpose so the WRAM wall stays visible (the tiled rows are the unlock).
void untiled_table(usize max_length, BenchReport& report) {
  constexpr double kErrorRate = 0.02;
  constexpr usize kBasesPerDpu = 160'000;  // pairs = bases / length
  report.set_param("untiled_error_rate", kErrorRate);
  report.set_param("untiled_bases_per_dpu", static_cast<i64>(kBasesPerDpu));

  std::cout << "\nUntiled PIM kernel by read length (E=" << kErrorRate * 100
            << "%, constant " << with_commas(kBasesPerDpu)
            << " bases/DPU)\n\n";
  std::cout << strprintf("  %-8s %-7s %-9s %14s %16s %14s\n", "length",
                         "pairs", "tasklets", "kernel", "bases/s/DPU",
                         "cells/pair");
  std::cout << "  " << std::string(74, '-') << "\n";

  for (const usize length :
       {100u, 250u, 500u, 1000u, 2000u, 4000u, 10'000u, 100'000u}) {
    if (length > max_length) continue;
    const usize pairs = std::max<usize>(kBasesPerDpu / length, 1);
    seq::GeneratorConfig gen;
    gen.pairs = pairs;
    gen.read_length = length;
    gen.error_rate = kErrorRate;
    gen.seed = 0x1E4 + length;
    const seq::ReadPairSet batch = seq::generate_dataset(gen);

    // Cap the score at what an E-bounded workload can reach (plus slack);
    // the worst case over 4000bp would blow the descriptor table.
    const usize errors = seq::errors_for(length, kErrorRate);
    const align::Penalties penalties = align::Penalties::defaults();
    const u64 cap = 8 * static_cast<u64>(errors + 4) *
                    static_cast<u64>(std::max(
                        penalties.mismatch,
                        penalties.gap_open + penalties.gap_extend));

    // Long reads need big WRAM buffers: halve the tasklet count until the
    // untiled run fits (the paper's deployment constraint).
    for (usize tasklets = 24; tasklets >= 1; tasklets /= 2) {
      pim::PimOptions options;
      options.system = upmem::SystemConfig::tiny(1);
      options.nr_tasklets = tasklets;
      options.max_score = cap;
      options.tile_long_pairs = false;
      try {
        pim::PimBatchAligner aligner(options);
        const pim::PimBatchResult result =
            aligner.align_batch(batch, align::AlignmentScope::kFull);
        const double seconds = result.timings.kernel_seconds;
        const double bases_per_s =
            static_cast<double>(pairs) * static_cast<double>(length) / seconds;
        report.add_metric(strprintf("untiled_kernel_seconds_len%zu", length),
                          seconds, "s");
        report.add_metric(strprintf("untiled_bases_per_second_len%zu", length),
                          bases_per_s, "bases/s");
        report.add_metric(strprintf("untiled_tasklets_len%zu", length),
                          static_cast<double>(tasklets));
        const u64 cells =
            result.timings.work.instructions / std::max<u64>(pairs, 1);
        const std::string rate = with_commas(static_cast<u64>(bases_per_s));
        std::cout << strprintf("  %-8zu %-7zu %-9zu %14s %16s %14s\n", length,
                               pairs, tasklets,
                               format_seconds(seconds).c_str(), rate.c_str(),
                               with_commas(cells).c_str());
        break;
      } catch (const Error&) {
        // Untiled run rejected (WRAM/arena shortfall); try fewer tasklets.
        if (tasklets == 1) {
          std::cout << strprintf("  %-8zu %-7zu %s\n", length, pairs,
                                 "does not fit untiled even with 1 tasklet");
          break;
        }
      }
    }

    // The same pairs under kUltralow on the host: lengths the untiled
    // kernel cannot host at all still get a peak.
    wfa::WfaAligner::Options ultra_options;
    ultra_options.penalties = penalties;
    ultra_options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
    wfa::WfaAligner ultra(ultra_options);
    WallTimer ultra_timer;
    for (usize i = 0; i < batch.size(); ++i) {
      ultra.align(batch[i].pattern, batch[i].text,
                  align::AlignmentScope::kFull);
    }
    const double ultra_seconds = ultra_timer.seconds();
    const u64 peak = ultra.counters().peak_wavefront_bytes;
    report.add_metric(
        strprintf("untiled_peak_wavefront_bytes_len%zu", length),
        static_cast<double>(peak), "bytes");
    report.add_metric(strprintf("untiled_ultralow_seconds_len%zu", length),
                      ultra_seconds, "s");
    std::cout << strprintf("  %-8s ultralow: peak %s wavefront bytes, %s\n",
                           "", with_commas(peak).c_str(),
                           format_seconds(ultra_seconds).c_str());
  }
  std::cout << "\nWFA work grows with the score (O(s^2) cells + O(n)"
               " extension), and WRAM buffer\npressure cuts the feasible"
               " tasklet count for long reads - the reason the paper\n"
               "lists longer reads as future work.\n";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.set_description("Long-read scaling: kUltralow memory + tiled PIM");
  double error_rate = 0;
  usize max_length = 0;
  usize base_budget = 0;
  std::string json;
  try {
    error_rate = cli.get_double(
        "error-rate", 0.002, "sequencing error rate of the generated pairs");
    max_length = static_cast<usize>(cli.get_int(
        "max-length", 1'000'000, "largest pair length to sweep"));
    base_budget = static_cast<usize>(cli.get_int(
        "base-budget", 1 << 20,
        "kUltralow recursion base budget (ultralow_base_wavefront_bytes)"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_longread: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const align::Penalties penalties = align::Penalties::defaults();
  std::cout << "Long-read unlock (E=" << error_rate * 100 << "%)\n\n";
  std::cout << strprintf(
      "  %-9s %8s %14s %14s %7s %12s %14s %12s %6s %7s\n", "length", "score",
      "ultra peak", "kHigh model", "ratio", "ultra", "tiled PIM", "tile plan",
      "segs", "=ultra");
  std::cout << "  " << std::string(113, '-') << "\n";
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));

  BenchReport report("longread");
  report.set_param("error_rate", error_rate);
  report.set_param("base_budget", static_cast<i64>(base_budget));
  report.set_param("max_length", static_cast<i64>(max_length));

  for (const usize length : {1'000u, 10'000u, 100'000u, 1'000'000u}) {
    if (length > max_length) continue;
    seq::GeneratorConfig gen;
    gen.pairs = 1;
    gen.read_length = length;
    gen.error_rate = error_rate;
    gen.seed = 0x10A6 + length;
    const seq::ReadPairSet batch = seq::generate_dataset(gen);
    const seq::ReadPair& pair = batch[0];
    const usize bases = pair.pattern.size() + pair.text.size();

    // --- kUltralow: measured peak + throughput -------------------------
    wfa::WfaAligner::Options ultra_options;
    ultra_options.penalties = penalties;
    ultra_options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
    ultra_options.ultralow_base_wavefront_bytes = base_budget;
    wfa::WfaAligner ultra(ultra_options);
    WallTimer ultra_timer;
    const auto result =
        ultra.align(pair.pattern, pair.text, align::AlignmentScope::kFull);
    const double ultra_seconds = ultra_timer.seconds();
    align::verify_result(result, pair.pattern, pair.text, penalties);
    const u64 ultra_peak = ultra.counters().peak_wavefront_bytes;

    // --- kHigh: the O(s^2) retention this length would need ------------
    // Modeled from the retention formula; measured too where it stays
    // small enough to run (the model is what scales to 1M, where an
    // actual retained run would need gigabytes).
    const u64 high_model = pim::TilingPlanner::retained_arena_estimate(
        result.score, pair.pattern.size(), pair.text.size());
    if (length <= 10'000) {
      wfa::WfaAligner high(penalties);
      high.align(pair.pattern, pair.text, align::AlignmentScope::kFull);
      report.add_metric(strprintf("high_peak_bytes_len%zu", length),
                        static_cast<double>(
                            high.counters().peak_wavefront_bytes),
                        "bytes");
    }
    const double ratio =
        static_cast<double>(high_model) / static_cast<double>(ultra_peak);

    // --- tiled PIM: modeled long-pair throughput -----------------------
    // A tiny fully-simulated system; pairs this long always tile. The
    // modeled seconds cover scatter + segmented kernel + gather; the
    // host-side planning (measured, reported beside them) and stitching
    // are not part of them.
    pim::PimOptions pim_options;
    pim_options.system = upmem::SystemConfig::tiny(2);
    pim_options.nr_tasklets = 4;
    pim_options.penalties = penalties;
    pim::PimBatchAligner pim(pim_options);
    const pim::PimBatchResult tiled =
        pim.align_batch(batch, align::AlignmentScope::kFull, &pool);
    const double pim_seconds = tiled.timings.total_seconds();
    const double pim_bases_per_s = static_cast<double>(bases) / pim_seconds;

    // The planner cuts the kUltralow path at the default base budget, so
    // the tiled result must equal that alignment exactly.
    wfa::WfaAligner::Options default_options;
    default_options.penalties = penalties;
    default_options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
    wfa::WfaAligner default_ultra(default_options);
    const align::AlignmentResult reference = default_ultra.align(
        pair.pattern, pair.text, align::AlignmentScope::kFull);
    const bool matches_ultralow = tiled.results.at(0) == reference;

    report.add_metric(strprintf("score_len%zu", length),
                      static_cast<double>(result.score));
    report.add_metric(strprintf("ultralow_peak_bytes_len%zu", length),
                      static_cast<double>(ultra_peak), "bytes");
    report.add_metric(strprintf("high_peak_model_bytes_len%zu", length),
                      static_cast<double>(high_model), "bytes");
    report.add_metric(strprintf("ultralow_peak_memory_ratio_len%zu", length),
                      ratio, "x");
    report.add_metric(strprintf("ultralow_seconds_len%zu", length),
                      ultra_seconds, "s");
    report.add_metric(strprintf("ultralow_bases_per_second_len%zu", length),
                      static_cast<double>(bases) / ultra_seconds, "bases/s");
    report.add_metric(strprintf("tiled_pim_bases_per_second_len%zu", length),
                      pim_bases_per_s, "bases/s");
    report.add_metric(strprintf("tile_segments_len%zu", length),
                      static_cast<double>(tiled.timings.tile_segments));
    report.add_metric(strprintf("tiled_matches_ultralow_len%zu", length),
                      matches_ultralow ? 1.0 : 0.0);
    report.add_metric(strprintf("tile_plan_seconds_len%zu", length),
                      tiled.timings.tile_plan_seconds, "s");

    std::cout << strprintf(
        "  %-9zu %8lld %14s %14s %6.1fx %12s %14s %12s %6zu %7s\n", length,
        static_cast<long long>(result.score),
        with_commas(ultra_peak).c_str(), with_commas(high_model).c_str(),
        ratio, format_seconds(ultra_seconds).c_str(),
        with_commas(static_cast<u64>(pim_bases_per_s)).c_str(),
        format_seconds(tiled.timings.tile_plan_seconds).c_str(),
        tiled.timings.tile_segments, matches_ultralow ? "yes" : "NO");
  }

  std::cout << "\nkUltralow keeps peak wavefront memory O(s) (rings + a "
               "bounded recursion base)\nwhile kHigh retains O(s^2); the "
               "tiled PIM path cuts pairs along their kUltralow path\nso "
               "arbitrarily long reads fit per-tasklet WRAM/MRAM shares.\n";

  untiled_table(max_length, report);
  if (!json.empty()) {
    report.write(json);
    std::cout << "BenchReport written to " << json << "\n";
  }
  return 0;
}
