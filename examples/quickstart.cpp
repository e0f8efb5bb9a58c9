// Quickstart: align two sequences with the WFA library, then run a small
// batch through the unified backend registry. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/bin/quickstart
//   ./build/bin/quickstart ACGTTAGCT ACGTAGCT
//   ./build/bin/quickstart --backend=hybrid
//   ./build/bin/quickstart --backend=pim --pipeline --pairs 2048
#include <iostream>
#include <memory>

#include "align/cli.hpp"
#include "align/registry.hpp"
#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "common/strings.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "wfa/wfa_aligner.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;

  Cli cli(argc, argv);
  cli.set_description("WFA quickstart: one pair, then a registry batch");
  align::BatchFlags defaults;
  defaults.backend = "cpu";
  defaults.pairs = 512;
  defaults.options.pim_dpus = 4;
  defaults.options.cpu_threads = 2;
  align::BatchFlags flags;
  try {
    flags = align::parse_batch_flags(cli, defaults);
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed flag: the user asked what the flags
    // are, not to run with them.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "quickstart: " << error.what() << "\n";
    return 2;
  }
  if (flags.pairs == 0 && !cli.help_requested()) {
    std::cerr << "quickstart: --pairs must be >= 1\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  // Every execution backend (CPU baseline, PIM variants, the hybrid
  // CPU+PIM split) implements align::BatchAligner; pick one by name. It
  // validates its options here (e.g. --tasklets against the DPU's range),
  // so a rejected value is a usage error like a malformed flag.
  std::unique_ptr<align::BatchAligner> backend;
  try {
    backend = align::backend_registry().create(flags.backend, flags.options);
  } catch (const Error& error) {
    std::cerr << "quickstart: " << error.what() << "\n";
    return 2;
  }

  const std::string pattern = !cli.positional().empty()
                                  ? cli.positional()[0]
                                  : "TCTTTACTCGCGCGTTGGAGAAATACAATAGT";
  const std::string text = cli.positional().size() > 1
                               ? cli.positional()[1]
                               : "TCTATACTGCGCGTTTGGAGAAATAAAATAGT";

  // --- part 1: one pair through the WFA library -------------------------
  const align::Penalties penalties = flags.options.penalties;
  wfa::WfaAligner aligner(penalties);

  const align::AlignmentResult result =
      aligner.align(pattern, text, align::AlignmentScope::kFull);

  std::cout << "pattern : " << pattern << "\n";
  std::cout << "text    : " << text << "\n";
  std::cout << "penalty : " << result.score << "  (" << penalties.to_string()
            << ")\n";
  std::cout << "CIGAR   : " << result.cigar.to_rle() << "\n";
  std::cout << "identity: " << result.cigar.identity() * 100 << "%\n";

  // The CIGAR is a proof: validate it against the pair and its score.
  align::verify_result(result, pattern, text, penalties);

  // WFA is exact: the classical O(n^2) Gotoh DP agrees on every input.
  baselines::GotohAligner gotoh(penalties);
  const auto reference =
      gotoh.align(pattern, text, align::AlignmentScope::kScoreOnly);
  std::cout << "gotoh   : " << reference.score
            << (reference.score == result.score ? "  (agrees)" : "  (BUG!)")
            << "\n";
  if (reference.score != result.score) return 1;

  // --- part 2: a batch through the backend registry ---------------------
  std::cout << "\nbatch   : " << with_commas(flags.pairs) << " pairs ("
            << flags.read_length << "bp, E=" << flags.error_rate * 100
            << "%) on backend '" << flags.backend << "'\n";
  seq::GeneratorConfig gen;
  gen.pairs = flags.pairs;
  gen.read_length = flags.read_length;
  gen.error_rate = flags.error_rate;
  gen.seed = flags.seed;
  const seq::ReadPairSet batch = seq::generate_dataset(gen);

  // Backends take a non-owning seq::ReadPairSpan view of the batch (an
  // owning ReadPairSet converts implicitly): sub-batches - the hybrid
  // split, engine shards, calibration samples - are carved in O(1)
  // without copying a base.
  const align::BatchResult batch_result =
      backend->run(seq::ReadPairSpan(batch), flags.scope(), nullptr);
  const align::BatchTimings& t = batch_result.timings;
  std::cout << "modeled : " << format_seconds(t.modeled_seconds) << " ("
            << with_commas(static_cast<u64>(t.throughput()))
            << " pairs/s on the modeled hardware)\n";
  if (batch_result.backend == "hybrid") {
    std::cout << "split   : " << t.cpu_pairs << " pairs on CPU, "
              << t.pim_pairs << " on PIM\n";
  }

  // Spot-check the batch results against the trusted DP reference.
  if (batch_result.results.size() != batch.size()) {
    std::cerr << "backend materialized only " << batch_result.results.size()
              << " of " << batch.size() << " results\n";
    return 1;
  }
  for (const usize i : {usize{0}, batch.size() / 2, batch.size() - 1}) {
    const i64 expected =
        gotoh.align(batch[i].pattern, batch[i].text,
                    align::AlignmentScope::kScoreOnly).score;
    if (batch_result.results[i].score != expected) {
      std::cerr << "batch pair " << i << ": backend score "
                << batch_result.results[i].score << " != gotoh " << expected
                << "\n";
      return 1;
    }
  }
  std::cout << "verified: batch scores agree with the Gotoh DP reference\n";

  // Work counters show the O(ns) behaviour that makes WFA fast.
  const wfa::WfaCounters& counters = aligner.counters();
  std::cout << "work    : " << counters.computed_cells << " wavefront cells, "
            << counters.extend_matches << " matched bases\n";
  return 0;
}
