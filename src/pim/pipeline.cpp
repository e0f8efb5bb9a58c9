#include "pim/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pimwfa::pim {
namespace {

// Per-launch overheads should consume at most ~1/kOverheadBudget of the
// transfer time the pipeline tries to hide; more chunks than that and the
// fixed launch costs eat the overlap win.
constexpr double kOverheadBudget = 4.0;

// Auto-planned chunks keep at least this many tasklet rows so per-chunk
// tasklet loads stay deep enough to smooth per-pair cost variance (a
// launch ends on its slowest tasklet; one-row slivers go chain-bound).
constexpr usize kMinRowsPerChunk = 2;

}  // namespace

PipelineModel PipelineModel::from_chunks(std::span<const ChunkTiming> chunks) {
  PipelineModel model;
  if (chunks.empty()) return model;

  // The scatter and gather buses are serial resources. The kernel stage is
  // tracked per DPU (async launches): each DPU advances independently, and
  // a chunk's gather waits for all DPUs to finish that chunk.
  std::vector<double> dpu_free(chunks.front().dpu_kernel_seconds.size(), 0.0);
  double scatter_free = 0;
  double kernel_free = 0;
  double gather_free = 0;
  double additive = 0;
  for (const ChunkTiming& chunk : chunks) {
    PIMWFA_ARG_CHECK(!chunk.dpu_kernel_seconds.empty(),
                     "pipeline chunk without per-DPU kernel seconds");
    scatter_free += chunk.scatter_seconds;
    const double ready = scatter_free + chunk.launch_overhead_seconds;
    double slowest = 0;
    for (usize d = 0; d < dpu_free.size(); ++d) {
      const double k = d < chunk.dpu_kernel_seconds.size()
                           ? chunk.dpu_kernel_seconds[d]
                           : 0.0;
      dpu_free[d] = std::max(ready, dpu_free[d]) + k;
      slowest = std::max(slowest, dpu_free[d]);
    }
    kernel_free = slowest;
    gather_free = std::max(kernel_free, gather_free) + chunk.gather_seconds;
    additive += chunk.scatter_seconds + chunk.kernel_seconds +
                chunk.gather_seconds;
  }
  model.total_seconds = gather_free;
  model.fill_seconds = chunks.front().scatter_seconds;
  model.drain_seconds = chunks.back().gather_seconds;
  model.steady_state_seconds =
      std::max(model.total_seconds - model.fill_seconds - model.drain_seconds,
               0.0);
  model.overlap_saved_seconds = std::max(additive - model.total_seconds, 0.0);
  return model;
}

std::pair<usize, usize> PipelineSchedule::slice(usize n, usize chunks,
                                                usize c, usize granule) {
  PIMWFA_ARG_CHECK(chunks >= 1 && c < chunks,
                   "chunk index " << c << " outside [0, " << chunks << ")");
  PIMWFA_ARG_CHECK(granule >= 1, "slice granule must be at least 1");
  // Partition whole granule-sized rows (the last one possibly partial),
  // first (rows % chunks) chunks taking the extra row.
  const usize rows = (n + granule - 1) / granule;
  const usize base = rows / chunks;
  const usize rem = rows % chunks;
  const usize row_begin = c * base + std::min(c, rem);
  const usize row_end = row_begin + base + (c < rem ? 1 : 0);
  return {std::min(row_begin * granule, n), std::min(row_end * granule, n)};
}

PipelineSchedule PipelineSchedule::plan(const Params& params) {
  PIMWFA_ARG_CHECK(params.host_bandwidth > 0,
                   "pipeline planning needs a positive host bandwidth");
  const usize max_chunks = std::max<usize>(params.max_chunks, 1);

  if (params.pairs == 0 || params.nr_dpus == 0) {
    return PipelineSchedule(params, 1);
  }
  // The lightest DPU's share bounds how finely the batch can be sliced:
  // slices are granular in tasklet-count rows (see slice()), so more
  // chunks than rows would leave some launches empty while still paying
  // their overheads.
  const usize per_dpu = params.pairs / params.nr_dpus;
  if (per_dpu == 0) return PipelineSchedule(params, 1);
  const usize granule = std::max<usize>(params.nr_tasklets, 1);
  const usize rows = (per_dpu + granule - 1) / granule;

  usize chunks;
  if (params.requested_chunks != 0) {
    // Explicit request: honor it up to one-row-per-chunk slices.
    chunks = std::min({params.requested_chunks, rows, max_chunks});
  } else {
    // The transfers are what pipelining hides, so size the chunk count
    // against them: per-launch overhead must stay a small fraction of the
    // transfer time spread over the chunks.
    const double transfer_seconds =
        static_cast<double>(params.scatter_bytes + params.gather_bytes) /
        params.host_bandwidth;
    usize overhead_cap = max_chunks;
    if (params.launch_overhead_seconds > 0) {
      const double cap = transfer_seconds /
                         (kOverheadBudget * params.launch_overhead_seconds);
      overhead_cap = cap >= static_cast<double>(max_chunks)
                         ? max_chunks
                         : static_cast<usize>(cap);
    }
    chunks = std::min(
        {std::max<usize>(rows / kMinRowsPerChunk, 1), overhead_cap,
         max_chunks});
  }
  return PipelineSchedule(params, std::max<usize>(chunks, 1));
}

}  // namespace pimwfa::pim
