// Per-tasklet execution context handed to DPU kernels.
//
// Mirrors the UPMEM SDK surface the PIM-WFA paper programs against:
//   me()               -> tasklet id
//   mram_read/write    -> DMA between MRAM and this DPU's WRAM
//   wram_alloc         -> WRAM heap allocation (SDK: mem_alloc / buddy)
// plus the simulator's instruction-accounting hook `account(n)`, through
// which kernels report the instructions their inner loops would execute on
// the real in-order core (costs per operation live with the kernels; the
// pipeline law that turns per-tasklet counts into DPU cycles lives in
// CostModel). The per-access calls (wram_ptr, mram_read, mram_write) are
// inline over the owning DPU's memories, which the context resolves once
// when it is built.
#pragma once

#include "common/types.hpp"
#include "upmem/dma.hpp"

namespace pimwfa::upmem {

// Work performed by one tasklet during one kernel launch.
struct TaskletStats {
  u64 instructions = 0;
  u64 dma_calls = 0;
  u64 dma_bytes = 0;
  u64 dma_cycles = 0;

  // Cycles this tasklet occupies issue slots / the DMA engine for.
  u64 busy_cycles() const noexcept { return instructions + dma_cycles; }

  void merge(const TaskletStats& other) noexcept {
    instructions += other.instructions;
    dma_calls += other.dma_calls;
    dma_bytes += other.dma_bytes;
    dma_cycles += other.dma_cycles;
  }
};

class Dpu;  // owner

class TaskletCtx {
 public:
  TaskletCtx(Dpu& dpu, usize tasklet_id, usize nr_tasklets);

  usize me() const noexcept { return tasklet_id_; }
  usize nr_tasklets() const noexcept { return nr_tasklets_; }

  // --- WRAM allocation -----------------------------------------------
  // Bump-allocates from the DPU's shared WRAM heap (8-byte aligned).
  // Returns a WRAM *offset*; resolve to a host pointer with wram_ptr().
  // Throws HardwareFault when the 64KB WRAM is exhausted - this is the
  // hard wall that forces the paper's metadata-in-MRAM design.
  u64 wram_alloc(usize bytes);

  // Host pointer to WRAM storage (valid for the whole launch).
  u8* wram_ptr(u64 offset, usize bytes) { return wram_->at(offset, bytes); }

  template <typename T>
  T* wram_array(u64 offset, usize count) {
    return reinterpret_cast<T*>(wram_ptr(offset, count * sizeof(T)));
  }

  // --- DMA -------------------------------------------------------------
  // UPMEM semantics: both addresses 8-byte aligned, size a multiple of 8
  // in [8, 2048]. Cycle costs are charged to this tasklet.
  void mram_read(u64 mram_addr, u64 wram_offset, usize bytes) {
    const u64 cycles =
        dma_->mram_to_wram(*mram_, mram_addr, *wram_, wram_offset, bytes);
    charge_dma(bytes, cycles);
  }
  void mram_write(u64 wram_offset, u64 mram_addr, usize bytes) {
    const u64 cycles =
        dma_->wram_to_mram(*wram_, wram_offset, *mram_, mram_addr, bytes);
    charge_dma(bytes, cycles);
  }

  // Large-transfer convenience: splits into max-size DMA chunks (the SDK
  // idiom for >2048-byte moves). Sizes must still be 8-byte aligned.
  void mram_read_large(u64 mram_addr, u64 wram_offset, usize bytes);
  void mram_write_large(u64 wram_offset, u64 mram_addr, usize bytes);

  // --- accounting ------------------------------------------------------
  // Charge `n` instructions of DPU work to this tasklet.
  void account(u64 instructions) noexcept { stats_.instructions += instructions; }

  const TaskletStats& stats() const noexcept { return stats_; }

  // Remaining WRAM heap bytes (diagnostic; kernels size fallbacks with it).
  u64 wram_free() const noexcept;

 private:
  void charge_dma(usize bytes, u64 cycles) noexcept {
    ++stats_.dma_calls;
    stats_.dma_bytes += bytes;
    stats_.dma_cycles += cycles;
  }

  Dpu* dpu_;
  Mram* mram_;
  Wram* wram_;
  const DmaEngine* dma_;
  usize tasklet_id_;
  usize nr_tasklets_;
  TaskletStats stats_;
};

}  // namespace pimwfa::upmem
