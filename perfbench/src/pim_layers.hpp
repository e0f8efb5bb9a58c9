// The closed loop shared by the PIM workloads (pim-fig1, long-tiled).
#pragma once

#include <vector>

#include "align/result.hpp"
#include "pim/host.hpp"
#include "seq/dataset.hpp"
#include "workloads.hpp"

namespace perfbench {

// A PIM workload's cycle: one align_batch call per batch, and the
// reference results every materialized pair of that batch must equal.
struct PimCycle {
  pimwfa::pim::PimOptions options;
  pimwfa::align::AlignmentScope scope = pimwfa::align::AlignmentScope::kFull;
  std::vector<pimwfa::seq::ReadPairSet> batches;
  std::vector<std::vector<pimwfa::align::AlignmentResult>> expected;
};

// Sets up one PimBatchAligner with a pool_threads() pool (median of three
// set-ups, each constructing both and aligning the first batch), runs the
// cycle as a closed loop, checks every materialized pair (an op), and
// reports the end-to-end metrics, or when traced the pim, upmem, model,
// tiling, host and self-time metrics.
void run_pim_cycle(const Args& args, Tracer& tracer, Report& report,
                   const PimCycle& cycle);

}  // namespace perfbench
