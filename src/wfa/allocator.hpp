// Wavefront arena of the host WFA.
//
// The original WFA C library allocates all wavefront metadata from an arena
// ("mm_allocator"). SlabAllocator is its equivalent here: WfaAligner owns
// one and takes every retained wavefront from it. The PIM paper's
// contribution is the DPU-side counterpart, which manages wavefront
// metadata over the WRAM/MRAM hierarchy inside the DPU kernel; that is
// pim::MetaSpace (pim/meta_space.hpp), not this class.
//
// Contract: bump allocation only; there is no per-object free. reset()
// recycles everything between alignments. All returns are 8-byte aligned
// (the DMA-alignment restriction of UPMEM, harmless on CPU).
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::wfa {

inline constexpr usize kAllocAlign = 8;

// A chain of malloc'd slabs with bump-pointer allocation. Slabs are
// retained across reset() so steady-state alignment does no heap
// allocation.
class SlabAllocator {
 public:
  explicit SlabAllocator(usize slab_bytes = 256 * 1024);

  // 8-byte-aligned storage for `bytes` bytes; valid until reset().
  void* allocate(usize bytes);

  // Typed helper.
  template <typename T>
  T* allocate_array(usize count) {
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  // Recycle all allocations (O(1); memory is retained for reuse).
  void reset();

  // Bytes handed out since the last reset().
  usize bytes_in_use() const noexcept { return in_use_; }

  // Maximum bytes_in_use() ever observed (across resets).
  usize high_water() const noexcept { return high_water_; }

  usize slab_count() const noexcept { return slabs_.size(); }

 private:
  struct Slab {
    std::unique_ptr<u8[]> data;
    usize capacity = 0;
    usize used = 0;
  };

  usize slab_bytes_;
  std::vector<Slab> slabs_;
  usize active_ = 0;  // index of the slab currently bump-allocating
  usize in_use_ = 0;
  usize high_water_ = 0;
};

}  // namespace pimwfa::wfa
