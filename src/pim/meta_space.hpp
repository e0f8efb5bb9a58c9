// The paper's custom memory allocator: wavefront metadata management over
// the WRAM/MRAM hierarchy of a UPMEM DPU.
//
// The original WFA allocates wavefronts from a host arena (mm_allocator).
// On a DPU, 64KB of WRAM shared by 24 tasklets cannot hold per-tasklet WFA
// metadata, so (quoting the paper) "to unleash the maximum threads, we
// store the metadata in MRAM and transfer it to/from WRAM on demand".
//
// MetaSpace implements both policies behind one interface:
//  - kMram: offset arrays and the score->descriptor table live in a
//    per-tasklet MRAM arena; accesses go through OffsetWindow staging
//    buffers (small WRAM windows DMA'd on demand, 8-byte aligned) and a
//    tiny write-through descriptor cache.
//  - kWram: everything lives in a per-tasklet WRAM arena; accesses are
//    direct loads/stores. Fast per access, but the arena competes with
//    every other tasklet for the 64KB, capping the usable tasklet count -
//    the ablation of Fig. Abl-A.
#pragma once

#include <cstring>

#include "common/check.hpp"
#include "common/types.hpp"
#include "pim/layout.hpp"
#include "upmem/tasklet.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::pim {

class MetaSpace {
 public:
  // MRAM policy: `arena_addr/arena_bytes` delimit this tasklet's MRAM
  // arena; the descriptor table ((max_score+1) WfDescs) sits at its start.
  static MetaSpace make_mram(upmem::TaskletCtx& ctx, u64 arena_addr,
                             u64 arena_bytes, u64 max_score);

  // WRAM policy: carves `arena_bytes` out of WRAM for the descriptor
  // table + offset heap. Throws HardwareFault if WRAM cannot hold it.
  static MetaSpace make_wram(upmem::TaskletCtx& ctx, u64 arena_bytes,
                             u64 max_score);

  bool in_wram() const noexcept { return policy_ == MetadataPolicy::kWram; }
  upmem::TaskletCtx& ctx() noexcept { return *ctx_; }

  // Recycle the offset heap (descriptors need no reset: every score's
  // descriptor is written before any read of it).
  void reset() noexcept;

  // Bump-allocate `count` i32 offsets (8-byte aligned). Returns a handle:
  // an absolute MRAM address (kMram) or a WRAM offset (kWram), never 0.
  // Throws HardwareFault when the arena is exhausted - the DPU memory
  // wall the paper's design navigates.
  u64 alloc_offsets(usize count);

  // Descriptor table access (score in [0, max_score]).
  WfDesc read_desc(u64 score);
  void write_desc(u64 score, const WfDesc& desc);

  // Random single-element read of offsets[k - lo] from an array handle
  // (backtrace path). Returns kOffsetNone for null handles / out-of-range k.
  wfa::Offset read_offset(u64 handle, i32 lo, i32 hi, i32 k);

  u64 max_score() const noexcept { return max_score_; }
  u64 heap_used() const noexcept { return heap_top_ - heap_base_; }
  u64 heap_capacity() const noexcept { return arena_bytes_ - (heap_base_ - arena_addr_); }
  u64 heap_high_water() const noexcept { return high_water_; }

 private:
  friend class OffsetWindow;

  MetaSpace(upmem::TaskletCtx& ctx, MetadataPolicy policy, u64 arena_addr,
            u64 arena_bytes, u64 max_score);

  upmem::TaskletCtx* ctx_;
  MetadataPolicy policy_;
  u64 arena_addr_;   // MRAM address or WRAM offset of the arena
  u64 arena_bytes_;
  u64 max_score_;
  u64 heap_base_;    // first byte past the descriptor table
  u64 heap_top_;
  u64 high_water_ = 0;

  // Descriptor cache (kMram): direct-mapped, write-through.
  static constexpr usize kDescCacheWays = 4;
  u64 desc_cache_wram_ = 0;  // WRAM offset of cache storage
  u64 desc_cache_tags_[kDescCacheWays];
  // Single-element staging slot for read_offset (kMram).
  u64 stage_wram_ = 0;
};

// A small WRAM staging window over one offset array. Access pattern of the
// WFA loops is (mostly) ascending in k, so a window that reloads forward
// on miss turns O(width) element accesses into O(width / kWindowOffsets)
// DMA transfers. In WRAM mode the window covers the whole bound array.
//
// Either way the window's storage is resolved to a host pointer, and
// bounds-checked in full, where it is placed: the staging buffer when the
// window is built (kMram), the bound array on bind() (kWram). A hit is
// then a range test and a memcpy; only a miss (load/flush) leaves the
// inline path, through the DMA engine.
class OffsetWindow {
 public:
  // Allocates the staging buffer from WRAM; construct once per tasklet,
  // rebind per array.
  explicit OffsetWindow(MetaSpace& space);

  // Bind to array `handle` covering diagonals [lo, hi]. handle==0 means
  // a null component: get() returns kOffsetNone everywhere.
  void bind(u64 handle, i32 lo, i32 hi, bool writable);

  // Furthest-reaching offset at diagonal k (kOffsetNone outside range).
  wfa::Offset get(i32 k) {
    if (handle_ == 0 || k < lo_ || k > hi_) return wfa::kOffsetNone;
    wfa::Offset value;
    std::memcpy(&value, slot(k - lo_), sizeof(value));
    return value;
  }

  // Store at diagonal k (must be within [lo, hi]; window must be bound
  // writable).
  void set(i32 k, wfa::Offset value) {
    PIMWFA_DCHECK(handle_ != 0 && writable_);
    PIMWFA_DCHECK(k >= lo_ && k <= hi_);
    std::memcpy(slot(k - lo_), &value, sizeof(value));
    dirty_ = true;
  }

  // Write back a dirty window (no-op otherwise / in WRAM mode).
  void flush();

  static constexpr usize kWindowOffsets = 32;  // 128 B staging buffer

 private:
  // Storage of `element`, loading the window over it on a miss.
  u8* slot(i32 element) {
    if (element < win_begin_ || element >= win_begin_ + win_count_) {
      load(element);
    }
    return data_ +
           static_cast<usize>(element - win_begin_) * sizeof(wfa::Offset);
  }
  void load(i32 element);  // reposition window to cover `element`

  MetaSpace* space_;
  u64 buffer_wram_ = 0;  // staging storage (kMram mode)
  // Host storage of element win_begin_: the staging buffer (kMram mode)
  // or the bound array (kWram mode).
  u8* data_ = nullptr;
  u64 handle_ = 0;
  i32 lo_ = 0;
  i32 hi_ = -1;
  i32 win_begin_ = 0;  // first element index covered
  i32 win_count_ = 0;  // elements loaded
  bool writable_ = false;
  bool dirty_ = false;
};

}  // namespace pimwfa::pim
