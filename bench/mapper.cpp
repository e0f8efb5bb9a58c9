// Seed-and-verify read mapper: hierarchical verification vs brute force.
//
// Runs map::ReadMapper over a repetitive synthetic reference twice - once
// with the Myers pre-filter, once brute-force - and reports recall
// (reads mapped within the window pad of their simulated locus, strand
// included), the filter rejection rate, and mapping throughput. The two
// runs must be bit-identical (same best score and CIGAR per read, the
// mapper's lossless-filter guarantee); with --json it emits the
// BENCH_mapper.json that the perf-smoke CI job gates on, so the
// hierarchy can't silently degrade to brute force (rejection rate) or
// stop finding true loci (recall), and the k-mer index can't grow back
// (its exact bytes and the process's peak RSS).
//
//   ./bench_mapper
//   ./bench_mapper --genome 250000 --reads 3000 --backend=cpu-simd
//   ./bench_mapper --json BENCH_mapper.json
#include <algorithm>
#include <iostream>

#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "map/mapper.hpp"
#include "map/reference.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Seed-and-verify mapper: Myers-filtered vs brute-force verification");
  map::ReferenceConfig ref_config;
  map::ReadSimConfig sim_config;
  map::MapperOptions options;
  std::string json;
  try {
    ref_config.length = static_cast<usize>(
        cli.get_int("genome", 120'000, "synthetic reference length"));
    ref_config.repeat_fraction = cli.get_double(
        "repeat-fraction", 0.5, "reference fraction covered by repeats");
    sim_config.reads =
        static_cast<usize>(cli.get_int("reads", 1500, "reads to map"));
    sim_config.read_length = static_cast<usize>(
        cli.get_int("read-length", 100, "simulated read length"));
    sim_config.error_rate =
        cli.get_double("error-rate", 0.02, "read error rate");
    options.k = static_cast<usize>(cli.get_int("k", 11, "seed length"));
    options.seeds_per_read =
        static_cast<usize>(cli.get_int("seeds", 4, "seeds per read"));
    options.backend = cli.get_string(
        "backend", "cpu", "verification backend (registry key)");
    options.batch.cpu_threads = static_cast<usize>(
        cli.get_int("threads", 2, "CPU worker threads"));
    options.batch.pim_dpus = static_cast<usize>(
        cli.get_int("dpus", 4, "PIM system size for pim backends"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_mapper: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  options.error_rate = sim_config.error_rate;

  const std::string genome = map::synthetic_reference(ref_config);
  const std::vector<map::SimulatedRead> reads =
      map::simulate_reads(genome, sim_config);
  std::vector<std::string> queries;
  queries.reserve(reads.size());
  for (const map::SimulatedRead& read : reads) queries.push_back(read.bases);

  std::cout << "Mapping " << with_commas(reads.size()) << " "
            << sim_config.read_length << "bp reads (E="
            << sim_config.error_rate * 100 << "%) against "
            << with_commas(genome.size()) << "bp ("
            << ref_config.repeat_fraction * 100
            << "% repeats) on backend '" << options.backend << "'\n\n";

  // --- filtered (the real configuration) ----------------------------------
  options.filter = true;
  map::ReadMapper mapper(genome, options);
  WallTimer timer;
  const map::MapResult filtered = mapper.map(queries);
  const double filtered_seconds = timer.seconds();

  // --- brute force (the identity reference) -------------------------------
  options.filter = false;
  map::ReadMapper brute_mapper(genome, options);
  timer.reset();
  const map::MapResult brute = brute_mapper.map(queries);
  const double brute_seconds = timer.seconds();

  // --- bit-identity -------------------------------------------------------
  // The filter may only discard candidates that could never qualify, so
  // every best hit - score and CIGAR - must survive it unchanged.
  bool identical = filtered.mappings.size() == brute.mappings.size();
  for (usize r = 0; identical && r < filtered.mappings.size(); ++r) {
    const map::Mapping& f = filtered.mappings[r];
    const map::Mapping& b = brute.mappings[r];
    identical = f.mapped == b.mapped &&
                (!f.mapped ||
                 (f.position == b.position && f.reverse == b.reverse &&
                  f.score == b.score && f.cigar.ops() == b.cigar.ops()));
    if (!identical) {
      std::cerr << "bench_mapper: filtered mapping diverges from brute "
                   "force on read "
                << r << "\n";
    }
  }

  // --- recall -------------------------------------------------------------
  usize mapped = 0;
  usize correct = 0;
  for (usize r = 0; r < reads.size(); ++r) {
    const map::Mapping& mapping = filtered.mappings[r];
    if (!mapping.mapped) continue;
    ++mapped;
    const i64 pad =
        static_cast<i64>(mapper.pad_for(queries[r].size()));
    const i64 delta = static_cast<i64>(mapping.position) -
                      static_cast<i64>(reads[r].position);
    if (mapping.reverse == reads[r].reverse && delta >= -pad && delta <= pad) {
      ++correct;
    }
  }
  const double reads_f = static_cast<double>(reads.size());
  const double recall = static_cast<double>(correct) / reads_f;
  const map::MapperStats& stats = filtered.stats;

  std::cout << strprintf("  %-28s %12s %12s\n", "config", "wall",
                         "reads/s");
  std::cout << "  " << std::string(54, '-') << "\n";
  std::cout << strprintf("  %-28s %12s %12s\n", "filtered (hierarchical)",
                         format_seconds(filtered_seconds).c_str(),
                         with_commas(static_cast<u64>(reads_f /
                                                      filtered_seconds))
                             .c_str());
  std::cout << strprintf("  %-28s %12s %12s\n", "brute force",
                         format_seconds(brute_seconds).c_str(),
                         with_commas(static_cast<u64>(reads_f /
                                                      brute_seconds))
                             .c_str());
  std::cout << strprintf(
      "\n  seeding : %s candidates (%.1f per read)\n",
      with_commas(stats.candidates).c_str(),
      static_cast<double>(stats.candidates) / reads_f);
  std::cout << strprintf(
      "  filter  : rejected %s (%.1f%%), verified %s with WFA\n",
      with_commas(stats.filter_rejected).c_str(),
      100.0 * stats.rejection_rate(), with_commas(stats.verified).c_str());
  std::cout << strprintf(
      "  recall  : %zu/%zu mapped, %zu at the true locus (%.1f%%)\n", mapped,
      reads.size(), correct, 100.0 * recall);
  std::cout << "  identity: filtered best hits "
            << (identical ? "bit-identical to" : "DIVERGE from")
            << " brute force\n";
  const map::KmerIndex& index = mapper.index();
  std::cout << strprintf(
      "  index   : %s bytes for %s positions (%.1f per position), "
      "peak RSS %.1f MiB\n",
      with_commas(index.memory_bytes()).c_str(),
      with_commas(index.indexed_positions()).c_str(),
      static_cast<double>(index.memory_bytes()) /
          static_cast<double>(std::max<usize>(index.indexed_positions(), 1)),
      peak_rss_mb());

  BenchReport report("mapper");
  report.set_param("genome", static_cast<i64>(ref_config.length));
  report.set_param("repeat_fraction", ref_config.repeat_fraction);
  report.set_param("reads", static_cast<i64>(reads.size()));
  report.set_param("read_length", static_cast<i64>(sim_config.read_length));
  report.set_param("error_rate", sim_config.error_rate);
  report.set_param("k", static_cast<i64>(options.k));
  report.set_param("seeds_per_read", static_cast<i64>(options.seeds_per_read));
  report.set_param("backend", options.backend);
  report.add_metric("recall", recall);
  report.add_metric("filter_rejection_rate", stats.rejection_rate());
  report.add_metric("filtered_identical", identical ? 1.0 : 0.0);
  report.add_metric("candidates_per_read",
                    static_cast<double>(stats.candidates) / reads_f);
  report.add_metric("verified_candidates",
                    static_cast<double>(stats.verified));
  report.add_metric("filtered_reads_per_second", reads_f / filtered_seconds,
                    "reads/s");
  report.add_metric("brute_reads_per_second", reads_f / brute_seconds,
                    "reads/s");
  report.add_metric("index_bytes",
                    static_cast<double>(index.memory_bytes()), "bytes");
  report.add_metric("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }

  return identical ? 0 : 1;
}
