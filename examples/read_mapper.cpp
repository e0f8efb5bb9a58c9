// Seed-and-verify read mapper over the batch backends - the thin CLI
// face of map::ReadMapper (src/map/): a reference (synthetic repetitive
// genome by default, or a FASTA via --reference) is k-mer indexed, reads
// vote candidate windows on both strands, a bit-parallel Myers filter
// rejects windows that provably cannot qualify, and the survivors are
// verified with gap-affine WFA as one zero-copy batch on the backend
// named by --backend (the simulated PIM system by default).
//
//   ./build/bin/read_mapper
//   ./build/bin/read_mapper --genome 200000 --reads 2000 --error-rate 0.03
//   ./build/bin/read_mapper --backend=hybrid --filter=false
//   ./build/bin/read_mapper --reference genome.fa --backend=cpu-simd
#include <iostream>
#include <vector>

#include "align/cli.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "map/mapper.hpp"
#include "map/reference.hpp"
#include "seq/fasta.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;

  Cli cli(argc, argv);
  cli.set_description("Seed-and-verify read mapper over the batch backends");
  align::BatchFlags defaults;
  defaults.backend = "pim";
  defaults.error_rate = 0.02;
  defaults.options.pim_dpus = 4;

  align::BatchFlags flags;
  map::MapperOptions options;
  map::ReferenceConfig ref_config;
  map::ReadSimConfig sim_config;
  std::string reference_path;
  try {
    flags = align::parse_batch_flags(cli, defaults);
    options.k = static_cast<usize>(cli.get_int("k", 11, "seed length"));
    options.seeds_per_read = static_cast<usize>(
        cli.get_int("seeds", 4, "seeds per read (spread evenly)"));
    options.filter = cli.get_bool(
        "filter", true, "Myers pre-filter (false = brute-force verify)");
    options.both_strands =
        cli.get_bool("both-strands", true, "seed the reverse complement too");
    reference_path = cli.get_string(
        "reference", "", "FASTA reference (default: synthetic genome)");
    ref_config.length = static_cast<usize>(
        cli.get_int("genome", 100'000, "synthetic reference length"));
    ref_config.repeat_fraction = cli.get_double(
        "repeat-fraction", 0.5, "synthetic genome fraction covered by repeats");
    ref_config.n_islands = static_cast<usize>(
        cli.get_int("n-islands", 0, "assembly-gap N runs in the reference"));
    sim_config.reads =
        static_cast<usize>(cli.get_int("reads", 1000, "reads to map"));
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed flag: the user asked what the flags
    // are, not to run with them.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "read_mapper: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  options.error_rate = flags.error_rate;
  options.backend = flags.backend;
  options.batch = flags.options;
  sim_config.read_length = flags.read_length;
  sim_config.error_rate = flags.error_rate;
  sim_config.seed = flags.seed;
  sim_config.both_strands = options.both_strands;

  try {
    // --- reference + reads ------------------------------------------------
    std::string genome;
    if (reference_path.empty()) {
      genome = map::synthetic_reference(ref_config);
    } else {
      for (const seq::FastaRecord& record :
           seq::read_fasta_file(reference_path)) {
        genome += record.sequence;
      }
    }
    const std::vector<map::SimulatedRead> reads =
        map::simulate_reads(genome, sim_config);
    std::vector<std::string> queries;
    queries.reserve(reads.size());
    for (const map::SimulatedRead& read : reads) queries.push_back(read.bases);

    // --- index + map ------------------------------------------------------
    WallTimer timer;
    map::ReadMapper mapper(std::move(genome), options);
    std::cout << "indexed " << with_commas(mapper.reference().size())
              << "bp reference (" << with_commas(mapper.index().distinct_kmers())
              << " distinct " << options.k << "-mers, "
              << with_commas(mapper.index().skipped_positions())
              << " windows skipped, " << format_seconds(timer.seconds())
              << ")\n";

    timer.reset();
    const map::MapResult result = mapper.map(queries);
    const map::MapperStats& stats = result.stats;
    std::cout << "seeded " << with_commas(stats.candidates)
              << " candidate windows for " << with_commas(stats.reads)
              << " reads; filter rejected " << with_commas(stats.filter_rejected)
              << strprintf(" (%.1f%%)", 100.0 * stats.rejection_rate())
              << ", verified " << with_commas(stats.verified) << "\n";
    std::cout << "aligned on backend '" << options.backend << "': "
              << format_seconds(stats.timings.modeled_seconds)
              << " modeled (kernel "
              << format_seconds(stats.timings.kernel_seconds) << ", "
              << format_seconds(timer.seconds()) << " host wall)\n";

    // --- evaluate against the simulation truth ----------------------------
    usize mapped = 0;
    usize correct = 0;
    for (usize r = 0; r < reads.size(); ++r) {
      const map::Mapping& mapping = result.mappings[r];
      if (!mapping.mapped) continue;
      ++mapped;
      const usize pad = mapper.pad_for(queries[r].size());
      const i64 delta = static_cast<i64>(mapping.position) -
                        static_cast<i64>(reads[r].position);
      if (mapping.reverse == reads[r].reverse &&
          delta >= -static_cast<i64>(pad) && delta <= static_cast<i64>(pad)) {
        ++correct;
      }
    }
    std::cout << "mapped " << mapped << "/" << reads.size() << " reads, "
              << correct << " at the true locus ("
              << strprintf("%.1f%%", 100.0 * static_cast<double>(correct) /
                                         static_cast<double>(reads.size()))
              << ")\n";
    return correct * 10 >= reads.size() * 9 ? 0 : 1;  // expect >= 90%
  } catch (const Error& error) {
    std::cerr << "read_mapper: " << error.what() << "\n";
    return 2;
  }
}
