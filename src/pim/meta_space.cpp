#include "pim/meta_space.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace pimwfa::pim {

using wfa::kOffsetNone;
using wfa::Offset;

MetaSpace::MetaSpace(upmem::TaskletCtx& ctx, MetadataPolicy policy,
                     u64 arena_addr, u64 arena_bytes, u64 max_score)
    : ctx_(&ctx),
      policy_(policy),
      arena_addr_(arena_addr),
      arena_bytes_(arena_bytes),
      max_score_(max_score) {
  const u64 desc_bytes = (max_score_ + 1) * sizeof(WfDesc);
  PIMWFA_HW_CHECK(desc_bytes + 64 <= arena_bytes_,
                  "metadata arena (" << arena_bytes_
                                     << " B) cannot hold descriptor table ("
                                     << desc_bytes << " B)");
  heap_base_ = round_up_pow2(arena_addr_ + desc_bytes, 8);
  heap_top_ = heap_base_;
  for (u64& tag : desc_cache_tags_) tag = ~u64{0};
  if (policy_ == MetadataPolicy::kMram) {
    desc_cache_wram_ = ctx.wram_alloc(kDescCacheWays * sizeof(WfDesc));
    stage_wram_ = ctx.wram_alloc(8);
  }
}

MetaSpace MetaSpace::make_mram(upmem::TaskletCtx& ctx, u64 arena_addr,
                               u64 arena_bytes, u64 max_score) {
  return MetaSpace(ctx, MetadataPolicy::kMram, arena_addr, arena_bytes,
                   max_score);
}

MetaSpace MetaSpace::make_wram(upmem::TaskletCtx& ctx, u64 arena_bytes,
                               u64 max_score) {
  const u64 offset = ctx.wram_alloc(static_cast<usize>(arena_bytes));
  return MetaSpace(ctx, MetadataPolicy::kWram, offset, arena_bytes, max_score);
}

void MetaSpace::reset() noexcept {
  high_water_ = std::max(high_water_, heap_used());
  heap_top_ = heap_base_;
}

u64 MetaSpace::alloc_offsets(usize count) {
  const u64 bytes = round_up_pow2(count * sizeof(Offset), 8);
  PIMWFA_HW_CHECK(
      heap_top_ + bytes <= arena_addr_ + arena_bytes_,
      "metadata arena exhausted: need " << bytes << " B on top of "
                                        << heap_used() << " B used of "
                                        << heap_capacity());
  const u64 handle = heap_top_;
  heap_top_ += bytes;
  ctx_->account(8);  // bump + alignment fixup
  PIMWFA_DCHECK(handle != 0);
  return handle;
}

WfDesc MetaSpace::read_desc(u64 score) {
  PIMWFA_HW_CHECK(score <= max_score_, "descriptor index " << score
                                                           << " out of table");
  const u64 addr = arena_addr_ + score * sizeof(WfDesc);
  if (policy_ == MetadataPolicy::kWram) {
    WfDesc desc;
    std::memcpy(&desc, ctx_->wram_ptr(addr, sizeof(WfDesc)), sizeof(WfDesc));
    ctx_->account(6);
    return desc;
  }
  const usize way = static_cast<usize>(score % kDescCacheWays);
  const u64 slot = desc_cache_wram_ + way * sizeof(WfDesc);
  ctx_->account(6);  // tag compare + index math
  if (desc_cache_tags_[way] != score) {
    ctx_->mram_read(addr, slot, sizeof(WfDesc));
    desc_cache_tags_[way] = score;
  }
  WfDesc desc;
  std::memcpy(&desc, ctx_->wram_ptr(slot, sizeof(WfDesc)), sizeof(WfDesc));
  return desc;
}

void MetaSpace::write_desc(u64 score, const WfDesc& desc) {
  PIMWFA_HW_CHECK(score <= max_score_, "descriptor index " << score
                                                           << " out of table");
  const u64 addr = arena_addr_ + score * sizeof(WfDesc);
  if (policy_ == MetadataPolicy::kWram) {
    std::memcpy(ctx_->wram_ptr(addr, sizeof(WfDesc)), &desc, sizeof(WfDesc));
    ctx_->account(6);
    return;
  }
  // Write-through: fill the cache way, then DMA out.
  const usize way = static_cast<usize>(score % kDescCacheWays);
  const u64 slot = desc_cache_wram_ + way * sizeof(WfDesc);
  std::memcpy(ctx_->wram_ptr(slot, sizeof(WfDesc)), &desc, sizeof(WfDesc));
  desc_cache_tags_[way] = score;
  ctx_->account(6);
  ctx_->mram_write(slot, addr, sizeof(WfDesc));
}

Offset MetaSpace::read_offset(u64 handle, i32 lo, i32 hi, i32 k) {
  if (handle == 0 || k < lo || k > hi) return kOffsetNone;
  const u64 element = static_cast<u64>(k - lo);
  const u64 byte = element * sizeof(Offset);
  ctx_->account(4);
  if (policy_ == MetadataPolicy::kWram) {
    Offset value;
    std::memcpy(&value, ctx_->wram_ptr(handle + byte, sizeof(Offset)),
                sizeof(Offset));
    return value;
  }
  // Stage the aligned 8-byte granule containing the element.
  const u64 granule = round_down_pow2(handle + byte, 8);
  ctx_->mram_read(granule, stage_wram_, 8);
  Offset value;
  std::memcpy(&value,
              ctx_->wram_ptr(stage_wram_ + (handle + byte - granule),
                             sizeof(Offset)),
              sizeof(Offset));
  return value;
}

// --- OffsetWindow -------------------------------------------------------

OffsetWindow::OffsetWindow(MetaSpace& space) : space_(&space) {
  if (!space.in_wram()) {
    constexpr usize kBytes = kWindowOffsets * sizeof(Offset);
    buffer_wram_ = space.ctx().wram_alloc(kBytes);
    data_ = space.ctx().wram_ptr(buffer_wram_, kBytes);
  }
}

void OffsetWindow::bind(u64 handle, i32 lo, i32 hi, bool writable) {
  flush();
  handle_ = handle;
  lo_ = lo;
  hi_ = hi;
  writable_ = writable;
  win_begin_ = 0;
  win_count_ = 0;
  dirty_ = false;
  if (space_->in_wram() && handle != 0 && lo <= hi) {
    // The array is WRAM-resident: window it whole, bounds-checked once.
    win_count_ = hi - lo + 1;
    data_ = space_->ctx().wram_ptr(
        handle, static_cast<usize>(win_count_) * sizeof(Offset));
  }
}

void OffsetWindow::load(i32 element) {
  flush();
  // Keep two elements of backward slack (compute reads k-1 after k+1 on
  // neighbouring windows) and honour the 8-byte DMA granularity.
  const i32 length = hi_ - lo_ + 1;
  i32 begin = element - 2;
  if (begin < 0) begin = 0;
  begin &= ~1;  // even element index -> 8-byte-aligned byte offset
  const i32 padded_length = (length + 1) & ~1;  // arena allocs are padded
  i32 count = static_cast<i32>(kWindowOffsets);
  if (begin + count > padded_length) count = padded_length - begin;
  PIMWFA_DCHECK(count > 0 && (count & 1) == 0);
  space_->ctx().mram_read(handle_ + static_cast<u64>(begin) * sizeof(Offset),
                          buffer_wram_,
                          static_cast<usize>(count) * sizeof(Offset));
  win_begin_ = begin;
  win_count_ = count;
}

void OffsetWindow::flush() {
  if (!dirty_ || space_->in_wram() || win_count_ == 0) {
    dirty_ = false;
    return;
  }
  space_->ctx().mram_write(
      buffer_wram_, handle_ + static_cast<u64>(win_begin_) * sizeof(Offset),
      static_cast<usize>(win_count_) * sizeof(Offset));
  dirty_ = false;
}

}  // namespace pimwfa::pim
