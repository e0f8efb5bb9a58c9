// Host-side orchestration of PIM batch alignment, mirroring the paper's
// pipeline: one CPU thread distributes read pairs evenly across DPU MRAMs
// (parallel rank transfers), every DPU runs the WFA kernel on its share
// with `nr_tasklets` tasklets, and the CPU gathers the results back.
//
// Timing breakdown matches Fig. 1:
//   Total  = scatter + kernel + gather
//   Kernel = slowest DPU's cycles / clock (+ launch overhead)
//
// One chunked loop runs every batch. By default each DPU's share is one
// chunk: scatter, kernel and gather run back to back and Total is their
// sum. Pipelined mode (options.pipeline) splits every share into chunks
// and overlaps scatter(i+1) / kernel(i) / gather(i-1); Total then becomes
// the pipeline makespan (fill + steady state + drain, see pim/pipeline.hpp)
// while the per-stage fields keep their additive meaning. Long-pair tiled
// batches run their segment records as one chunk and stitch the results.
// Results are bit-identical whatever the chunk count. Transfer volumes
// come from the record strides of every logical DPU.
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

#include "align/batch.hpp"
#include "common/thread_pool.hpp"
#include "common/thread_safety.hpp"
#include "pim/cost_table.hpp"
#include "pim/layout.hpp"
#include "pim/pipeline.hpp"
#include "pim/tiling.hpp"
#include "seq/view.hpp"
#include "upmem/system.hpp"
#include "wfa/kernels.hpp"

namespace pimwfa::pim {

struct PimOptions {
  upmem::SystemConfig system = upmem::SystemConfig::paper();
  usize nr_tasklets = 24;
  MetadataPolicy policy = MetadataPolicy::kMram;
  align::Penalties penalties = align::Penalties::defaults();
  // Transfer sequences 2-bit packed (beyond-paper optimization: quarters
  // the scatter bytes that dominate Fig. 1's Total; the DPU unpacks after
  // the DMA). Results remain bit-identical. Only upper-case A, C, G and T
  // pack: align_batch throws InvalidArgument, naming the pair, for a batch
  // holding any other byte, before anything reaches MRAM.
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

  // --- long-pair tiling -------------------------------------------------
  // Split pairs that exceed a tasklet's WRAM share (sequence buffers) or
  // per-tasklet MRAM arena (wavefront metadata) into segments of their
  // host kUltralow path (pim/tiling.hpp), run the segments as ordinary
  // records, and stitch the results back into one alignment. A tiled pair
  // gets the score and CIGAR of a `cpu` kUltralow run at the default base
  // budget; where optimal paths tie, that CIGAR may differ from an untiled
  // kHigh run's. When off, an oversized pair raises Error naming the pair
  // and the shortfall.
  bool tile_long_pairs = true;
  // Segment size bound in pattern+text bases (0 = derive from the per-
  // tasklet WRAM share). Pairs at or under the bound run untiled.
  usize tile_max_segment_bases = 0;

  // --- pipelined execution ---------------------------------------------
  // Overlap scatter/kernel/gather across chunks of the batch. Runs one
  // chunk when the planner decides that is best, and always for tiled
  // batches.
  bool pipeline = false;
  // Chunk count; 0 lets PipelineSchedule choose from the batch size, the
  // rank topology and the per-launch overheads. Nonzero requires
  // `pipeline` (the constructor rejects it otherwise).
  usize pipeline_chunks = 0;

  // Translate the unified batch options (see align/batch.hpp). They
  // describe a fully simulated, materialized batch: simulate_dpus and
  // virtual_total_pairs stay 0.
  static PimOptions from(const align::BatchOptions& batch);
};

struct PimTimings {
  // Stage-busy time, summed over chunks (equals the phase wall time of a
  // one-chunk run).
  double scatter_seconds = 0;
  double kernel_seconds = 0;
  double gather_seconds = 0;

  // Modeled end-to-end time: additive for a one-chunk run, the overlapped
  // pipeline makespan when chunks > 1.
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
  // Host wall time spent planning this call's tiles. Measured, not
  // modeled: it never enters total_seconds() or any modeled field.
  double tile_plan_seconds = 0;

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
  // given, runs the split steps of the long-pair tiling planner - real
  // host work, timed by tile_plan_seconds - and parallelizes the host-side
  // simulation: independent DPUs in a one-chunk run, concurrent pipeline
  // stages in pipelined mode. Neither affects results or modeled timing.
  // Safe to call concurrently on distinct batches: each call takes a
  // workspace of its own (a PimSystem and, once a call has tiled, a
  // TilingPlanner with its aligners) from this aligner's pool of idle ones
  // (building one when all are busy) and hands it back when it returns, so
  // the pool holds at most as many workspaces as calls ever ran at once.
  // A reused system's stale MRAM/WRAM bytes are harmless: the DPU kernel
  // and the result decoder read only bytes written earlier in the same
  // call.
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
  // What one align_batch call uses exclusively.
  struct Workspace {
    std::unique_ptr<upmem::PimSystem> system;
    std::unique_ptr<TilingPlanner> planner;  // built by the first tiled call
  };
  // An idle workspace, or a new one.
  Workspace take_workspace(usize simulated) PIMWFA_EXCLUDES(idle_mutex_);
  void give_back(Workspace workspace) PIMWFA_EXCLUDES(idle_mutex_);

  PimOptions options_;
  // The kernels the cpu-simd backend dispatches to, resolved once at
  // construction: the tiling planner aligns with them and the DPU kernels
  // scan extension matches with their match_run.
  const wfa::WfaKernels* kernels_;
  Mutex idle_mutex_;
  // Workspaces of finished calls. A call that throws drops its workspace.
  std::vector<Workspace> idle_ PIMWFA_GUARDED_BY(idle_mutex_);
};

}  // namespace pimwfa::pim
