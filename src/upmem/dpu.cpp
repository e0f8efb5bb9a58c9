#include "upmem/dpu.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"

namespace pimwfa::upmem {

Dpu::Dpu(const SystemConfig& config, usize id)
    : config_(&config),
      id_(id),
      mram_(config.mram_bytes),
      wram_(config.wram_bytes),
      dma_(config) {
  wram_heap_reset();
}

u64 Dpu::wram_heap_alloc(usize bytes) {
  const u64 rounded = round_up_pow2(std::max<usize>(bytes, 1), 8);
  PIMWFA_HW_CHECK(wram_heap_top_ + rounded <= config_->wram_bytes,
                  "WRAM exhausted on DPU " << id_ << ": heap top "
                                           << wram_heap_top_ << " + " << rounded
                                           << " exceeds " << config_->wram_bytes);
  const u64 offset = wram_heap_top_;
  wram_heap_top_ += rounded;
  return offset;
}

u64 Dpu::wram_heap_free() const noexcept {
  return config_->wram_bytes - wram_heap_top_;
}

void Dpu::wram_heap_reset() noexcept {
  wram_heap_top_ = config_->wram_reserved_bytes;
}

DpuRunStats Dpu::launch(DpuKernel& kernel, usize nr_tasklets) {
  PIMWFA_ARG_CHECK(nr_tasklets >= 1 && nr_tasklets <= config_->max_tasklets,
                   "tasklet count " << nr_tasklets << " outside [1, "
                                    << config_->max_tasklets << "]");
  wram_heap_reset();
  DpuRunStats stats;
  stats.tasklets.reserve(nr_tasklets);
  for (usize t = 0; t < nr_tasklets; ++t) {
    TaskletCtx ctx(*this, t, nr_tasklets);
    kernel.run(ctx);
    stats.tasklets.push_back(ctx.stats());
  }
  stats.cycles = CostModel(*config_).dpu_cycles(stats.tasklets);
  return stats;
}

// --- TaskletCtx --------------------------------------------------------

TaskletCtx::TaskletCtx(Dpu& dpu, usize tasklet_id, usize nr_tasklets)
    : dpu_(&dpu),
      mram_(&dpu.mram()),
      wram_(&dpu.wram()),
      dma_(&dpu.dma()),
      tasklet_id_(tasklet_id),
      nr_tasklets_(nr_tasklets) {}

u64 TaskletCtx::wram_alloc(usize bytes) { return dpu_->wram_heap_alloc(bytes); }

u64 TaskletCtx::wram_free() const noexcept { return dpu_->wram_heap_free(); }

void TaskletCtx::mram_read_large(u64 mram_addr, u64 wram_offset, usize bytes) {
  const u64 chunk = dma_->max_bytes();
  while (bytes > 0) {
    const usize step = static_cast<usize>(std::min<u64>(bytes, chunk));
    mram_read(mram_addr, wram_offset, step);
    mram_addr += step;
    wram_offset += step;
    bytes -= step;
  }
}

void TaskletCtx::mram_write_large(u64 wram_offset, u64 mram_addr, usize bytes) {
  const u64 chunk = dma_->max_bytes();
  while (bytes > 0) {
    const usize step = static_cast<usize>(std::min<u64>(bytes, chunk));
    mram_write(wram_offset, mram_addr, step);
    mram_addr += step;
    wram_offset += step;
    bytes -= step;
  }
}

}  // namespace pimwfa::upmem
