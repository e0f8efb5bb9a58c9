// Dataset utility: generate synthetic read-pair datasets (the WFA-paper
// protocol), convert between formats (.seq text / binary / FASTA), print
// statistics, and align a dataset on any registered batch backend.
//
//   ./build/bin/dataset_tools generate --pairs 1000 --error-rate 0.04
//                                      --out pairs.seq
//   ./build/bin/dataset_tools stats pairs.seq
//   ./build/bin/dataset_tools convert pairs.seq pairs.bin
//   ./build/bin/dataset_tools align pairs.seq --backend=hybrid
#include <iostream>

#include "align/cli.hpp"
#include "align/registry.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"

namespace {

using namespace pimwfa;

bool has_suffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

seq::ReadPairSet load_any(const std::string& path) {
  if (has_suffix(path, ".bin")) return seq::ReadPairSet::load(path);
  return seq::read_seq_pairs_file(path);
}

void save_any(const std::string& path, const seq::ReadPairSet& set) {
  if (has_suffix(path, ".bin")) {
    set.save(path);
  } else if (has_suffix(path, ".fa") || has_suffix(path, ".fasta")) {
    std::vector<seq::FastaRecord> records;
    records.reserve(set.size() * 2);
    for (usize i = 0; i < set.size(); ++i) {
      records.push_back({"pair" + std::to_string(i) + "/pattern",
                         set[i].pattern});
      records.push_back({"pair" + std::to_string(i) + "/text", set[i].text});
    }
    seq::write_fasta_file(path, records);
  } else {
    seq::write_seq_pairs_file(path, set);
  }
}

void print_usage() {
  std::cout << "usage: dataset_tools <generate|stats|convert|align> [flags]\n"
            << "  generate --pairs N --read-length L --error-rate E --seed S"
            << " --out FILE\n"
            << "  stats FILE\n"
            << "  convert IN OUT        (.seq / .bin / .fa by extension)\n"
            << "  align FILE --backend B  (any registered backend:\n"
            << pimwfa::align::backend_registry().describe();
}

int usage() {
  print_usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  // Asking for help is not an error; a missing command is.
  if (cli.help_requested()) {
    print_usage();
    return 0;
  }
  if (cli.positional().empty()) return usage();
  const std::string command = cli.positional()[0];

  // A malformed or unknown flag is a usage error (exit 2); an error raised
  // while running exits 1.
  align::BatchFlags flags;
  std::string out;
  try {
    if (command == "generate") {
      flags = align::parse_batch_flags(cli);
      out = cli.get_string("out", "pairs.seq", "");
    } else if (command == "align") {
      align::BatchFlags defaults;
      defaults.backend = "cpu";
      defaults.options.pim_dpus = 4;
      flags = align::parse_batch_flags(cli, defaults);
    }
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    std::cerr << "dataset_tools: " << error.what() << "\n";
    return 2;
  }

  try {
    if (command == "generate") {
      seq::GeneratorConfig config;
      config.pairs = flags.pairs;
      config.read_length = flags.read_length;
      config.error_rate = flags.error_rate;
      config.seed = flags.seed;
      const seq::ReadPairSet set = seq::generate_dataset(config);
      save_any(out, set);
      std::cout << "wrote " << with_commas(set.size()) << " pairs to " << out
                << "\n";
      return 0;
    }
    if (command == "stats") {
      if (cli.positional().size() < 2) return usage();
      const seq::ReadPairSet set = load_any(cli.positional()[1]);
      const seq::DatasetStats stats = set.stats();
      std::cout << "pairs         : " << with_commas(stats.pairs) << "\n";
      std::cout << "total bases   : " << with_commas(stats.total_bases) << "\n";
      std::cout << "length range  : " << stats.min_length << " .. "
                << stats.max_length << "\n";
      std::cout << strprintf("mean pattern  : %.1f bp\n",
                             stats.mean_pattern_length);
      std::cout << strprintf("mean text     : %.1f bp\n",
                             stats.mean_text_length);
      return 0;
    }
    if (command == "convert") {
      if (cli.positional().size() < 3) return usage();
      const seq::ReadPairSet set = load_any(cli.positional()[1]);
      save_any(cli.positional()[2], set);
      std::cout << "converted " << with_commas(set.size()) << " pairs: "
                << cli.positional()[1] << " -> " << cli.positional()[2] << "\n";
      return 0;
    }
    if (command == "align") {
      if (cli.positional().size() < 2) return usage();
      const seq::ReadPairSet set = load_any(cli.positional()[1]);
      const auto backend =
          align::backend_registry().create(flags.backend, flags.options);
      // Backends take a non-owning view; `set` stays alive for the call.
      const align::BatchResult result =
          backend->run(seq::ReadPairSpan(set), flags.scope());
      RunningStats scores;
      for (const align::AlignmentResult& r : result.results) {
        scores.add(static_cast<double>(r.score));
      }
      std::cout << "aligned " << with_commas(result.results.size())
                << " pairs on backend '" << result.backend << "'\n";
      std::cout << strprintf(
          "scores        : best %.0f, mean %.1f, worst %.0f\n", scores.min(),
          scores.mean(), scores.max());
      std::cout << "modeled time  : "
                << format_seconds(result.timings.modeled_seconds) << " ("
                << with_commas(static_cast<u64>(result.timings.throughput()))
                << " pairs/s)\n";
      std::cout << "host wall     : "
                << format_seconds(result.timings.wall_seconds) << "\n";
      return 0;
    }
  } catch (const Error& error) {
    std::cerr << "dataset_tools: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
