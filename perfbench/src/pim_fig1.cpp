// pim-fig1: the paper's headline path. Consecutive full-CIGAR batches of
// 100 bp pairs, alternating E=2% and E=4% as in Fig. 1, each modeled at
// paper scale on the 2560-DPU system with a functionally simulated prefix
// of DPUs and a virtual batch, all through one PimBatchAligner. An op is
// one materialized (simulated) pair; every one is checked against the
// host `cpu` WFA, score and CIGAR.
#include "cpu/cpu_batch.hpp"
#include "pim_layers.hpp"
#include "seq/generator.hpp"
#include "upmem/config.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;

constexpr usize kSimulatedDpus = 4;
// Virtual batch = this many pairs per logical DPU, over all 2560 DPUs.
constexpr usize kPairsPerDpu = 64;
constexpr usize kReadLength = 100;
constexpr double kErrorRates[] = {0.02, 0.04};
constexpr usize kBatchesPerCycle = 4;

}  // namespace

void run_pim_fig1(const Args& args, Tracer& tracer, Report& report) {
  PimCycle cycle;
  const upmem::SystemConfig system = upmem::SystemConfig::paper();
  cycle.options.system = system;
  cycle.options.nr_tasklets = 24;
  cycle.options.simulate_dpus = args.tiny ? 1 : kSimulatedDpus;
  cycle.options.virtual_total_pairs =
      system.nr_dpus() * (args.tiny ? 2 : kPairsPerDpu);
  const usize materialized =
      pim::PimBatchAligner::dpu_pair_range(cycle.options.virtual_total_pairs,
                                           system.nr_dpus(),
                                           cycle.options.simulate_dpus - 1)
          .second;

  {  // inputs and reference answers, untimed
    ThreadPool pool(pool_threads());
    const cpu::CpuBatchAligner reference(cpu::CpuBatchOptions{});
    for (usize b = 0; b < kBatchesPerCycle; ++b) {
      seq::GeneratorConfig gen;
      gen.pairs = materialized;
      gen.read_length = kReadLength;
      gen.error_rate = kErrorRates[b % 2];
      gen.seed = args.seed * 1000 + b;
      cycle.batches.push_back(seq::generate_dataset(gen));
      cycle.expected.push_back(
          reference.align_batch(cycle.batches.back(), cycle.scope, &pool)
              .results);
    }
  }
  run_pim_cycle(args, tracer, report, cycle);
}

}  // namespace perfbench
