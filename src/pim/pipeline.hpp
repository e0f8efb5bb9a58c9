// Chunked, pipelined execution planning for the PIM batch aligner.
//
// A one-chunk run is one scatter -> kernel -> gather sequence, so the
// modeled Total is strictly additive even though real UPMEM systems
// transfer and compute independently. Pipelined mode splits every DPU's
// pair share into `chunks` contiguous slices and overlaps scatter(i+1),
// kernel(i) and gather(i-1):
//
//        scatter: [0][1][2][3]
//        kernel :    [0][1][2][3]
//        gather :       [0][1][2][3]
//
// Each stage is a serial resource (the host->device bus, the DPUs, the
// device->host bus), so the makespan follows the classic software-pipeline
// recurrence; for homogeneous chunks it collapses to
//
//   Total = fill + steady-state + drain
//         = S_0 + (chunks-1) * max(S, K, G) + remaining stage times
//
// i.e. the steady state is governed by the slowest stage alone - which is
// what attacks the Fig. 1 transfer share: at paper scale the kernel hides
// most of the scatter/gather time (or vice versa at high E).
//
// PipelineSchedule picks the chunk count: enough chunks that the slowest
// stage dominates, but few enough that per-launch overheads (kernel launch
// cost, per-launch header staging) stay a small fraction of the work.
// Results are bit-identical to a one-chunk run by construction - the same
// pair records land at the same MRAM addresses and the same kernel aligns
// them - and the differential suite asserts it.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::pim {

// Modeled stage costs of one chunk.
struct ChunkTiming {
  double scatter_seconds = 0;
  // Kernel stage busy time (slowest DPU + launch overhead). Used directly
  // as a serial stage when no per-DPU detail is provided.
  double kernel_seconds = 0;
  double gather_seconds = 0;

  // Optional async-launch detail: per-DPU kernel seconds for this chunk,
  // plus the host dispatch cost. UPMEM hosts launch ranks asynchronously,
  // so a DPU may start its chunk i+1 as soon as its own chunk i finished
  // and the data arrived - only the gather of a chunk waits for every DPU.
  // Modeling this per-DPU removes the spurious serialization a global
  // chunk barrier would add when per-pair costs vary.
  double launch_overhead_seconds = 0;
  std::vector<double> dpu_kernel_seconds;
};

// Makespan of a chunk sequence under the three-stage pipeline recurrence.
struct PipelineModel {
  double total_seconds = 0;        // overlapped end-to-end makespan
  double fill_seconds = 0;         // first chunk's scatter (pipeline lead-in)
  double drain_seconds = 0;        // last chunk's gather (pipeline tail)
  double steady_state_seconds = 0; // total - fill - drain
  double overlap_saved_seconds = 0;// additive sum - total

  static PipelineModel from_chunks(std::span<const ChunkTiming> chunks);
};

class PipelineSchedule {
 public:
  struct Params {
    usize pairs = 0;        // virtual batch size
    usize nr_dpus = 0;      // logical DPUs the batch is spread over
    usize nr_tasklets = 1;
    u64 scatter_bytes = 0;  // whole-batch host->device volume
    u64 gather_bytes = 0;   // whole-batch device->host volume
    double host_bandwidth = 1.0;          // bytes/s at this rank count
    double launch_overhead_seconds = 0;   // fixed cost per kernel launch
    usize requested_chunks = 0;           // 0 = planner's choice
    usize max_chunks = 64;
  };

  // Plans the chunk count. Returns a 1-chunk (synchronous) schedule when
  // chunking cannot pay for its overheads.
  static PipelineSchedule plan(const Params& params);

  usize chunks() const noexcept { return chunks_; }
  bool pipelined() const noexcept { return chunks_ > 1; }
  const Params& params() const noexcept { return params_; }

  // Chunk `c`'s slice of an n-pair DPU share: contiguous [begin, end)
  // ranges that exactly partition [0, n). Slice boundaries fall on
  // multiples of `granule` (the tasklet count): a T-tasklet kernel launch
  // over s pairs costs max-per-tasklet = ceil(s / T) pair times, so
  // unaligned slices would each round up and the summed chunk kernels
  // would exceed the one-launch kernel. Aligned slices keep the sum equal
  // to the synchronous kernel (plus per-launch setup).
  static std::pair<usize, usize> slice(usize n, usize chunks, usize c,
                                       usize granule = 1);

 private:
  PipelineSchedule(Params params, usize chunks)
      : params_(std::move(params)), chunks_(chunks) {}

  Params params_;
  usize chunks_ = 1;
};

}  // namespace pimwfa::pim
