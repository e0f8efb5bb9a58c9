// The WFA DPU kernel - the PIM port of the wavefront algorithm described
// in the paper.
//
// Each tasklet independently processes pairs me(), me()+T, me()+2T, ... of
// its DPU's batch (no inter-tasklet synchronization, as in the paper):
//   1. DMA the read pair from MRAM into WRAM buffers,
//   2. run gap-affine WFA with all wavefront metadata managed by MetaSpace
//      (MRAM-resident + staged on demand, or WRAM-resident, per policy),
//   3. write score (and CIGAR, in full-alignment batches) back to MRAM.
//
// The algorithm is the original WFA - the paper applies "no optimizations
// compared to the original WFA implementation". The kernel runs
// wfa/rule.hpp (the cell recurrence, row ranges, gap runs and the
// backtrace with its tie-break) over MetaSpace reads and writes, the same
// rule wfa::WfaAligner runs over its host arena, so host and DPU results
// are bit-identical by construction (the integration tests assert it).
// Instructions are charged from kDefaultKernelCosts (pim/cost_table.hpp).
#pragma once

#include "pim/cost_table.hpp"
#include "pim/layout.hpp"
#include "pim/meta_space.hpp"
#include "upmem/kernel.hpp"
#include "wfa/kernels.hpp"

namespace pimwfa::pim {

class WfaDpuKernel final : public upmem::DpuKernel {
 public:
  // Align pairs [first_pair, first_pair + pair_count) of the MRAM batch.
  // On hardware the bounds travel as kernel launch arguments (a small
  // host->WRAM copy the host accounts per launch); the batch in MRAM is
  // untouched, so a sliced sequence of launches is bit-identical to one
  // full launch. `match_run` scans the extension's matching bases on the
  // host: any bit-identical kernel (wfa/kernels.hpp), since the DPU is
  // charged its scalar per-base cost either way.
  WfaDpuKernel(u64 first_pair, u64 pair_count, wfa::MatchRunFn match_run)
      : first_pair_(first_pair),
        pair_count_(pair_count),
        match_run_(match_run) {}

  // Modeled bytes of the per-launch argument block (slice bounds).
  static constexpr u64 kLaunchArgBytes = 16;

  void run(upmem::TaskletCtx& ctx) override;

 private:
  u64 first_pair_;
  u64 pair_count_;
  wfa::MatchRunFn match_run_;
};

}  // namespace pimwfa::pim
