// long-tiled: long pairs (10 kb to 100 kb, E=0.2% as in bench_longread)
// aligned with full CIGARs through `pim` with long-pair tiling on a small,
// fully simulated system: tile planning at BiWFA breakpoints and
// host-side stitching run here and nowhere else. An op is one pair; every
// result must equal the host `cpu` backend in kUltralow mode.
#include "cpu/cpu_batch.hpp"
#include "pim_layers.hpp"
#include "seq/generator.hpp"
#include "upmem/config.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;

// One cycle: kPairsPerLength pairs of each length, one pair per call.
constexpr usize kLengths[] = {10'000, 20'000, 40'000, 100'000};
constexpr usize kPairsPerLength = 2;
constexpr usize kTinyLengths[] = {3'000, 6'000};
constexpr double kErrorRate = 0.002;
constexpr usize kDpus = 2;
constexpr usize kTasklets = 4;

}  // namespace

void run_long_tiled(const Args& args, Tracer& tracer, Report& report) {
  std::vector<usize> lengths;
  if (args.tiny) {
    lengths.assign(std::begin(kTinyLengths), std::end(kTinyLengths));
  } else {
    for (usize copy = 0; copy < kPairsPerLength; ++copy) {
      lengths.insert(lengths.end(), std::begin(kLengths), std::end(kLengths));
    }
  }

  PimCycle cycle;
  cycle.options.system = upmem::SystemConfig::tiny(kDpus);
  cycle.options.nr_tasklets = kTasklets;
  cycle.options.tile_long_pairs = true;

  // Inputs and reference answers, untimed.
  cpu::CpuBatchOptions reference_options;
  reference_options.memory_mode = align::MemoryMode::kUltralow;
  const cpu::CpuBatchAligner reference(reference_options);
  for (usize b = 0; b < lengths.size(); ++b) {
    seq::GeneratorConfig gen;
    gen.pairs = 1;
    gen.read_length = lengths[b];
    gen.error_rate = kErrorRate;
    gen.seed = args.seed * 1000 + b;
    cycle.batches.push_back(seq::generate_dataset(gen));
    cycle.expected.push_back(
        reference.align_batch(cycle.batches.back(), cycle.scope).results);
  }
  run_pim_cycle(args, tracer, report, cycle);
}

}  // namespace perfbench
