// Multi-threaded CPU batch aligner: the baseline side of the paper's
// Fig. 1 ("original WFA implementation executed on a server-grade CPU").
// Each worker thread runs an independent WfaAligner over a static share of
// the batch, exactly like the multi-threaded driver of WFA's benchmark
// tool. Wall time is measured, not modeled; projecting the measurement to
// the paper's 56-thread Xeon is ScalingModel's job (which is what the
// unified BatchAligner::run interface reports as modeled_seconds).
#pragma once

#include <vector>

#include "align/batch.hpp"
#include "common/thread_pool.hpp"
#include "cpu/simd/simd.hpp"
#include "seq/view.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::cpu {

struct CpuBatchOptions {
  align::Penalties penalties = align::Penalties::defaults();
  usize threads = 1;
  // Wavefront retention of every worker's WfaAligner (see
  // align::MemoryMode); kUltralow is what makes 10kb+ pairs tractable.
  align::MemoryMode memory_mode = align::MemoryMode::kHigh;
  // Route workers through the SIMD layer (vectorized kernels + exact
  // fast paths; bit-identical results). The dispatch level is resolved
  // once at construction via simd::active_level().
  bool simd = false;

  // Translate the unified batch options (see align/batch.hpp).
  static CpuBatchOptions from(const align::BatchOptions& batch);
};

struct CpuBatchResult {
  std::vector<align::AlignmentResult> results;
  double seconds = 0;           // measured wall time of the alignment loop
  wfa::WfaCounters work;        // merged over threads
  u64 allocator_high_water = 0; // max wavefront arena bytes over threads
  simd::SimdStats simd;         // fast-path counters (simd mode only)
};

class CpuBatchAligner final : public align::BatchAligner {
 public:
  explicit CpuBatchAligner(CpuBatchOptions options);
  // Construct from the unified options (registry factory path).
  explicit CpuBatchAligner(const align::BatchOptions& batch);

  // Native batch API over a non-owning pair view (zero-copy: the hybrid
  // dispatcher and the engine hand in O(1) sub-spans of one batch). A
  // `pool` runs the worker loops (one static share per pool worker,
  // options().threads ignored) so long-lived drivers like the
  // BatchEngine stop paying pool construction per batch; without one, a
  // pool is spawned per call when options().threads > 1.
  CpuBatchResult align_batch(seq::ReadPairSpan batch,
                             align::AlignmentScope scope,
                             ThreadPool* pool = nullptr) const;

  // Unified interface: measures with the configured host threads and
  // projects the measurement onto the modeled server (ScalingModel) for
  // BatchTimings::modeled_seconds. In simd mode the traffic floor comes
  // from this batch's fast-path counters; simd::model_sample runs (on the
  // first 128 pairs) only to divide a cpu_per_pair_seconds override by
  // its modeled speedup. wall_seconds covers the whole call,
  // cpu_wall_seconds the worker loop alone.
  align::BatchResult run(seq::ReadPairSpan batch,
                         align::AlignmentScope scope,
                         ThreadPool* pool = nullptr) override;
  std::string name() const override {
    return options_.simd ? "cpu-simd" : "cpu";
  }

  const CpuBatchOptions& options() const noexcept { return options_; }
  // Dispatch level workers run at (kScalar unless options().simd).
  simd::SimdLevel simd_level() const noexcept { return simd_level_; }

 private:
  CpuBatchOptions options_;
  simd::SimdLevel simd_level_ = simd::SimdLevel::kScalar;
  // Unified-options field consumed by run() (0 when constructed from
  // native CpuBatchOptions).
  double per_pair_seconds_override_ = 0;
};

}  // namespace pimwfa::cpu
