#include "upmem/dma.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"

namespace pimwfa::upmem {

void DmaEngine::reject(u64 mram_addr, u64 wram_offset, usize bytes) const {
  PIMWFA_HW_CHECK(is_aligned_pow2(mram_addr, config_->dma_align),
                  "DMA MRAM address " << mram_addr << " not "
                                      << config_->dma_align << "-byte aligned");
  PIMWFA_HW_CHECK(is_aligned_pow2(wram_offset, config_->dma_align),
                  "DMA WRAM offset " << wram_offset << " not "
                                     << config_->dma_align << "-byte aligned");
  PIMWFA_HW_CHECK(is_aligned_pow2(bytes, config_->dma_align),
                  "DMA size " << bytes << " not a multiple of "
                              << config_->dma_align);
  PIMWFA_HW_CHECK(bytes >= config_->dma_align && bytes <= config_->dma_max_bytes,
                  "DMA size " << bytes << " outside [" << config_->dma_align
                              << ", " << config_->dma_max_bytes << "]");
  throw Error("DMA fault raised for a transfer every rule accepts");
}

}  // namespace pimwfa::upmem
