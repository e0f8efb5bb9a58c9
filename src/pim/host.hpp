// Host-side orchestration of PIM batch alignment, mirroring the paper's
// pipeline: one CPU thread distributes read pairs evenly across DPU MRAMs
// (parallel rank transfers), every DPU runs the WFA kernel on its share
// with `nr_tasklets` tasklets, and the CPU gathers the results back.
//
// Timing breakdown matches Fig. 1:
//   Total  = scatter + kernel + gather
//   Kernel = slowest DPU's cycles / clock (+ launch overhead)
//
// Pipelined mode (options.pipeline) splits every DPU's share into chunks
// and overlaps scatter(i+1) / kernel(i) / gather(i-1); Total then becomes
// the pipeline makespan (fill + steady state + drain, see pim/pipeline.hpp)
// while the per-stage fields keep their additive meaning. Results are
// bit-identical to the synchronous path.
//
// Full-scale runs (2560 DPUs) may functionally simulate only the first
// `simulate_dpus` DPUs: the workload is distributed uniformly, the first
// DPUs carry the (ceil) heaviest shares, and the unsimulated DPUs' traffic
// is still accounted in the transfer model. Results are then available for
// the pairs of the simulated DPUs only (a contiguous prefix).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "align/aligner.hpp"
#include "align/batch.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_safety.hpp"
#include "pim/cost_table.hpp"
#include "pim/layout.hpp"
#include "pim/pipeline.hpp"
#include "seq/view.hpp"
#include "upmem/system.hpp"

namespace pimwfa::pim {

struct PimOptions {
  upmem::SystemConfig system = upmem::SystemConfig::paper();
  usize nr_tasklets = 24;
  MetadataPolicy policy = MetadataPolicy::kMram;
  align::Penalties penalties = align::Penalties::defaults();
  // Transfer sequences 2-bit packed (beyond-paper optimization: quarters
  // the scatter bytes that dominate Fig. 1's Total; the DPU unpacks after
  // the DMA). Results remain bit-identical.
  bool packed_sequences = false;
  // Per-batch score cap (descriptor-table size); 0 = worst case over the
  // batch's longest pair. Lower it for long reads where the worst case
  // cannot happen (e.g. bounded error rates).
  u64 max_score = 0;
  // Functionally simulate only this many DPUs (0 = all). See header note.
  usize simulate_dpus = 0;
  // Model a batch of this many pairs while only materializing the pairs of
  // the simulated DPUs (0 = the batch is the whole workload). When set,
  // align_batch's input must contain at least the pairs assigned to the
  // simulated DPUs under an even distribution of `virtual_total_pairs`
  // over the logical system; transfers are accounted for the full virtual
  // batch. This is how the paper-scale 5M-pair runs stay tractable.
  usize virtual_total_pairs = 0;
  KernelCosts costs = kDefaultKernelCosts;

  // --- long-pair tiling -------------------------------------------------
  // Split pairs that exceed a tasklet's WRAM share (sequence buffers) or
  // per-tasklet MRAM arena (wavefront metadata) into breakpoint-delimited
  // segments planned host-side (pim/tiling.hpp), run the segments as
  // ordinary records, and stitch the results back into one alignment -
  // scores and CIGARs stay bit-identical to an untiled run. When off, an
  // oversized pair raises Error naming the pair and the shortfall.
  bool tile_long_pairs = true;
  // Segment size bound in pattern+text bases (0 = derive from the per-
  // tasklet WRAM share). Pairs at or under the bound run untiled.
  usize tile_max_segment_bases = 0;

  // --- pipelined execution ---------------------------------------------
  // Overlap scatter/kernel/gather across chunks of the batch. Falls back
  // to the synchronous path when the planner decides one chunk is best.
  bool pipeline = false;
  // Chunk count; 0 lets PipelineSchedule choose from the batch size, the
  // rank topology and the per-launch overheads.
  usize pipeline_chunks = 0;
  // Upper bound on the planner's chunk choice.
  usize pipeline_max_chunks = 64;

  // Translate the unified batch options (see align/batch.hpp).
  static PimOptions from(const align::BatchOptions& batch);
};

struct PimTimings {
  // Stage-busy time, summed over chunks (equals the phase wall time in the
  // synchronous path).
  double scatter_seconds = 0;
  double kernel_seconds = 0;
  double gather_seconds = 0;

  // Modeled end-to-end time: additive for the synchronous path, the
  // overlapped pipeline makespan when chunks > 1.
  double total_seconds() const {
    return chunks > 1 ? pipelined_total_seconds : additive_seconds();
  }
  // Sum of the stage times regardless of overlap (the synchronous law).
  double additive_seconds() const {
    return scatter_seconds + kernel_seconds + gather_seconds;
  }

  u64 kernel_cycles_max = 0;    // slowest DPU (summed over chunk launches)
  u64 kernel_cycles_total = 0;  // summed over simulated DPUs
  u64 bytes_to_device = 0;
  u64 bytes_from_device = 0;
  upmem::TaskletStats work;     // aggregated over simulated DPUs

  usize pairs = 0;
  usize logical_dpus = 0;
  usize simulated_dpus = 0;
  usize nr_tasklets = 0;

  // --- long-pair tiling (zero for untiled runs) -------------------------
  usize tiled_pairs = 0;     // pairs that were split into >1 segment
  usize tile_segments = 0;   // segment records executed on the DPUs

  // --- pipelined execution (chunks > 1; zero otherwise) ----------------
  usize chunks = 1;
  double pipelined_total_seconds = 0;  // overlapped makespan
  double fill_seconds = 0;             // first chunk's scatter (lead-in)
  double drain_seconds = 0;            // last chunk's gather (tail)
  double steady_state_seconds = 0;     // makespan - fill - drain
  double overlap_saved_seconds = 0;    // additive - makespan
};

struct PimBatchResult {
  // Results for pairs [0, results.size()): the pairs hosted on the
  // simulated DPUs. Equal to the full batch when simulate_dpus covers the
  // system.
  std::vector<align::AlignmentResult> results;
  PimTimings timings;
};

class PimBatchAligner final : public align::BatchAligner {
 public:
  explicit PimBatchAligner(PimOptions options);
  // Construct from the unified options (registry factory path).
  explicit PimBatchAligner(const align::BatchOptions& batch);

  // Align the batch (a non-owning view; MRAM ingestion reads - and, in
  // packed mode, packs - straight from the viewed pairs, so carving a
  // sub-batch for this call never copies bases host-side). `pool`, if
  // given, parallelizes the host-side simulation: independent DPUs in the
  // synchronous path, concurrent pipeline stages in pipelined mode (a
  // simulator concern only; it does not affect modeled timing). Safe to
  // call concurrently on distinct batches: each call takes a PimSystem of
  // its own from this aligner's pool of idle systems (building one when
  // all are busy) and hands it back when it returns, so the pool holds at
  // most as many systems as calls ever ran at once. A reused system's
  // stale MRAM/WRAM bytes are harmless: the DPU kernel and the result
  // decoder read only bytes written earlier in the same call.
  PimBatchResult align_batch(seq::ReadPairSpan batch,
                             align::AlignmentScope scope,
                             ThreadPool* pool = nullptr);

  // Unified interface: wraps align_batch and maps PimTimings onto the
  // shared BatchTimings vocabulary.
  align::BatchResult run(seq::ReadPairSpan batch,
                         align::AlignmentScope scope,
                         ThreadPool* pool = nullptr) override;
  std::string name() const override;

  const PimOptions& options() const noexcept { return options_; }

  // Would align_batch route this batch through the long-pair tiling path?
  // Callers that cannot serve a tiled run - e.g. the hybrid calibrator's
  // virtual-prefix probe - use this to pick a different strategy up front
  // instead of catching the tiled path's argument errors.
  bool needs_tiling(seq::ReadPairSpan batch,
                    align::AlignmentScope scope) const;

  // Pairs assigned to DPU `d` of `nr_dpus` for an n-pair batch: contiguous
  // blocks, first (n % nr_dpus) DPUs take the extra pair.
  static std::pair<usize, usize> dpu_pair_range(usize n, usize nr_dpus,
                                                usize d);

 private:
  // An idle system with its transfer stats reset, or a new one.
  std::unique_ptr<upmem::PimSystem> take_system(usize simulated)
      PIMWFA_EXCLUDES(idle_systems_mutex_);
  void give_back(std::unique_ptr<upmem::PimSystem> system)
      PIMWFA_EXCLUDES(idle_systems_mutex_);

  PimOptions options_;
  Mutex idle_systems_mutex_;
  // Systems of finished calls. A call that throws drops its system.
  std::vector<std::unique_ptr<upmem::PimSystem>> idle_systems_
      PIMWFA_GUARDED_BY(idle_systems_mutex_);
};

}  // namespace pimwfa::pim
