// Built-in backend registrations. Like hybrid.cpp, this file sits above
// the cpu/ and pim/ layers: it is where the concrete backends meet the
// registry, so nothing else in align/ needs to know they exist.
#include <memory>

#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "cpu/cpu_batch.hpp"
#include "pim/host.hpp"

namespace pimwfa::align::detail {

void register_builtin_backends(BackendRegistry& registry) {
  registry.add("cpu",
               "multi-threaded host WFA, roofline-projected onto the "
               "paper's 56-thread Xeon",
               [](const BatchOptions& options) {
                 return std::make_unique<cpu::CpuBatchAligner>(options);
               });
  registry.add("cpu-simd",
               "host WFA through the SIMD layer: runtime-dispatched "
               "AVX2 kernels + exact fast paths, bit-identical to cpu",
               [](const BatchOptions& options) {
                 BatchOptions adjusted = options;
                 adjusted.cpu_simd = true;
                 return std::make_unique<cpu::CpuBatchAligner>(adjusted);
               });
  registry.add("pim",
               "scatter / kernel / gather on the simulated UPMEM system; "
               "--packed 2-bit packs transfers, --pipeline [--chunks N] "
               "overlaps the stages across chunks",
               [](const BatchOptions& options) {
                 return std::make_unique<pim::PimBatchAligner>(options);
               });
  registry.add("hybrid",
               "throughput-proportional CPU+PIM split, merged in input "
               "order",
               [](const BatchOptions& options) {
                 return std::make_unique<HybridBatchAligner>(options);
               });
}

}  // namespace pimwfa::align::detail
