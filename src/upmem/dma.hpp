// MRAM<->WRAM DMA engine with the real UPMEM restrictions:
//  - both the MRAM address and the WRAM address must be 8-byte aligned,
//  - the size must be a multiple of 8, between 8 and 2048 bytes.
// Violations throw HardwareFault (on hardware they corrupt or fault).
// Each transfer costs `setup + bytes * per_byte` DPU cycles.
//
// Every kernel DMA passes through here, so the rule test and both
// transfer directions are inline; only the fault report is out of line.
#pragma once

#include "common/types.hpp"
#include "upmem/config.hpp"
#include "upmem/mram.hpp"
#include "upmem/wram.hpp"

namespace pimwfa::upmem {

class DmaEngine {
 public:
  explicit DmaEngine(const SystemConfig& config) : config_(&config) {}

  // Validate a transfer's addresses/size against the hardware rules. One
  // branch: dma_align is a power of two (SystemConfig::validate), so the
  // three alignment rules fold into one mask test.
  void check(u64 mram_addr, u64 wram_offset, usize bytes) const {
    const u64 align = config_->dma_align;
    if (((mram_addr | wram_offset | bytes) & (align - 1)) != 0 ||
        bytes < align || bytes > config_->dma_max_bytes) [[unlikely]] {
      reject(mram_addr, wram_offset, bytes);
    }
  }

  // Cycle cost of one transfer of `bytes` bytes.
  u64 cycles(usize bytes) const noexcept {
    return config_->dma_setup_cycles +
           static_cast<u64>(static_cast<double>(bytes) *
                            config_->dma_cycles_per_byte);
  }

  // mram_read / mram_write in UPMEM SDK terms (named from the DPU's
  // perspective). Both return the cycle cost.
  u64 mram_to_wram(Mram& mram, u64 mram_addr, Wram& wram, u64 wram_offset,
                   usize bytes) const {
    check(mram_addr, wram_offset, bytes);
    mram.read(mram_addr, wram.at(wram_offset, bytes), bytes);
    return cycles(bytes);
  }
  u64 wram_to_mram(const Wram& wram, u64 wram_offset, Mram& mram,
                   u64 mram_addr, usize bytes) const {
    check(mram_addr, wram_offset, bytes);
    mram.write(mram_addr, wram.at(wram_offset, bytes), bytes);
    return cycles(bytes);
  }

  u64 max_bytes() const noexcept { return config_->dma_max_bytes; }
  u64 align() const noexcept { return config_->dma_align; }

 private:
  // Raises the HardwareFault naming the first rule a transfer check()
  // rejected breaks. Cold and out of line.
  [[noreturn]] void reject(u64 mram_addr, u64 wram_offset, usize bytes) const;

  const SystemConfig* config_;
};

}  // namespace pimwfa::upmem
