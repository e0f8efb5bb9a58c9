// End-to-end batch alignment through the unified backend registry:
// generate a read batch, run it on the backend named by --backend (the
// simulated PIM system by default), and report the Fig.1-style timing
// breakdown in the unified BatchTimings vocabulary.
//
//   ./build/bin/pim_batch_align
//   ./build/bin/pim_batch_align --pairs 20000 --dpus 16 --tasklets 12
//   ./build/bin/pim_batch_align --backend=pim --pipeline --chunks 4
//   ./build/bin/pim_batch_align --backend=hybrid
#include <iostream>
#include <memory>

#include "align/cli.hpp"
#include "align/registry.hpp"
#include "common/strings.hpp"
#include "cpu/cpu_batch.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description("Batch alignment through the backend registry");
  align::BatchFlags defaults;
  defaults.backend = "pim";
  defaults.pairs = 8192;
  defaults.options.pim_dpus = 8;
  align::BatchFlags flags;
  try {
    flags = align::parse_batch_flags(cli, defaults);
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "pim_batch_align: " << error.what() << "\n";
    return 2;
  }
  if (flags.pairs == 0 && !cli.help_requested()) {
    std::cerr << "pim_batch_align: --pairs must be >= 1\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  // The backend validates its options here (e.g. --tasklets against the
  // DPU's range); a rejected value is a usage error like a malformed flag.
  std::unique_ptr<align::BatchAligner> backend;
  try {
    backend = align::backend_registry().create(flags.backend, flags.options);
  } catch (const Error& error) {
    std::cerr << "pim_batch_align: " << error.what() << "\n";
    return 2;
  }

  const seq::ReadPairSet batch =
      seq::fig1_dataset(flags.pairs, flags.error_rate);
  std::cout << "Aligning " << with_commas(flags.pairs)
            << " pairs of 100bp reads (E=" << flags.error_rate * 100
            << "%) on backend '" << flags.backend << "'\n\n";

  ThreadPool pool(4);
  // Zero-copy hand-off: the backend reads the pairs through a view.
  const align::BatchResult result =
      backend->run(seq::ReadPairSpan(batch), flags.scope(), &pool);

  const align::BatchTimings& t = result.timings;
  if (t.pim_pairs > 0) {
    std::cout << "scatter : " << format_seconds(t.scatter_seconds) << "  ("
              << format_bytes(t.bytes_to_device) << " to MRAM)\n";
    std::cout << "kernel  : " << format_seconds(t.kernel_seconds) << "\n";
    std::cout << "gather  : " << format_seconds(t.gather_seconds) << "  ("
              << format_bytes(t.bytes_from_device) << " from MRAM)\n";
  }
  if (t.cpu_pairs > 0) {
    std::cout << "cpu     : " << format_seconds(t.cpu_modeled_seconds)
              << " modeled (" << with_commas(t.cpu_pairs) << " pairs, "
              << format_seconds(t.cpu_wall_seconds) << " host wall)\n";
  }
  std::cout << "total   : " << format_seconds(t.modeled_seconds)
            << " modeled  => "
            << with_commas(static_cast<u64>(t.throughput())) << " pairs/s\n";
  if (t.pipeline_chunks > 1) {
    std::cout << "pipeline: " << t.pipeline_chunks << " chunks\n";
  }
  if (result.backend == "hybrid") {
    std::cout << "split   : " << with_commas(t.cpu_pairs) << " pairs on CPU, "
              << with_commas(t.pim_pairs) << " on PIM ("
              << strprintf("%.1f%%", t.cpu_fraction * 100) << " CPU; alone: "
              << format_seconds(t.cpu_alone_seconds) << " CPU, "
              << format_seconds(t.pim_alone_seconds) << " PIM; "
              << t.bases_copied << " bases copied by the split)\n";
  }
  std::cout << "\n";

  // Cross-check a few results against the host implementation.
  if (result.results.size() != batch.size()) {
    std::cerr << "backend materialized only " << result.results.size()
              << " of " << batch.size() << " results\n";
    return 1;
  }
  cpu::CpuBatchAligner host(cpu::CpuBatchOptions{flags.options.penalties, 1});
  const usize indices[3] = {0, flags.pairs / 2, flags.pairs - 1};
  const seq::ReadPairSet sample_set(
      {batch[indices[0]], batch[indices[1]], batch[indices[2]]});
  const cpu::CpuBatchResult host_result =
      host.align_batch(sample_set, flags.scope());
  for (usize i = 0; i < 3; ++i) {
    const bool ok = result.results[indices[i]] == host_result.results[i];
    std::cout << "pair " << indices[i] << ": score "
              << result.results[indices[i]].score
              << (ok ? "  (matches host WFA)" : "  (MISMATCH!)") << "\n";
    if (!ok) return 1;
  }
  return 0;
}
