#include "upmem/mram.hpp"

#include <algorithm>
#include <cstring>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace pimwfa::upmem {

Mram::Mram(u64 capacity_bytes)
    : capacity_(capacity_bytes),
      nr_pages_(ceil_div(capacity_bytes, kPageBytes)) {
  PIMWFA_ARG_CHECK(capacity_bytes > 0, "MRAM capacity must be positive");
  pages_ = std::make_unique<std::atomic<u8*>[]>(static_cast<usize>(nr_pages_));
}

Mram::~Mram() {
  for (u64 i = 0; i < nr_pages_; ++i) {
    delete[] pages_[i].load(std::memory_order_relaxed);
  }
}

void Mram::check_range(u64 addr, usize bytes) const {
  PIMWFA_HW_CHECK(addr <= capacity_ && bytes <= capacity_ - addr,
                  "MRAM access [" << addr << ", " << addr + bytes
                                  << ") exceeds capacity " << capacity_);
}

u8* Mram::page_for_write(u64 index) {
  u8* page = pages_[index].load(std::memory_order_acquire);
  if (page != nullptr) return page;
  u8* fresh = new u8[kPageBytes]();
  if (pages_[index].compare_exchange_strong(page, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    resident_pages_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }
  delete[] fresh;  // another writer installed it first; `page` holds theirs
  return page;
}

void Mram::read(u64 addr, void* dst, usize bytes) const {
  check_range(addr, bytes);
  u8* out = static_cast<u8*>(dst);
  while (bytes > 0) {
    const u64 offset = addr % kPageBytes;
    const usize step =
        static_cast<usize>(std::min<u64>(bytes, kPageBytes - offset));
    const u8* page = pages_[addr / kPageBytes].load(std::memory_order_acquire);
    if (page == nullptr) {
      std::memset(out, 0, step);
    } else {
      std::memcpy(out, page + offset, step);
    }
    out += step;
    addr += step;
    bytes -= step;
  }
}

void Mram::write(u64 addr, const void* src, usize bytes) {
  check_range(addr, bytes);
  const u8* in = static_cast<const u8*>(src);
  while (bytes > 0) {
    const u64 offset = addr % kPageBytes;
    const usize step =
        static_cast<usize>(std::min<u64>(bytes, kPageBytes - offset));
    std::memcpy(page_for_write(addr / kPageBytes) + offset, in, step);
    in += step;
    addr += step;
    bytes -= step;
  }
}

}  // namespace pimwfa::upmem
