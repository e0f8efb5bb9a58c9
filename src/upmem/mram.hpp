// Simulated MRAM: the 64 MB DRAM bank private to one DPU.
//
// Byte-addressable from the host side and via the DPU's DMA engine.
// Backing storage is a sparse store of fixed 64 KiB pages: a page is
// allocated (zeroed) on its first write, and a read of a page never
// written returns zeros without allocating - fresh DRAM is zeroed by the
// host runtime. Instantiating thousands of DPUs, or a batch layout that
// spreads its arenas over the whole bank, therefore costs memory
// proportional to the pages actually written. Out-of-bounds accesses
// throw HardwareFault.
//
// Pages are installed by compare-and-swap into a flat per-DPU table of
// atomic page pointers and never freed before the Mram is, so concurrent
// reads and writes of disjoint byte ranges are safe without external
// locking - including two writers first-touching the same page. Accesses
// to overlapping bytes still need an ordering of their own.
#pragma once

#include <atomic>
#include <memory>

#include "common/types.hpp"

namespace pimwfa::upmem {

class Mram {
 public:
  static constexpr u64 kPageBytes = 64 * 1024;

  explicit Mram(u64 capacity_bytes);
  ~Mram();
  // Owns its pages; the destructor frees them.
  Mram(const Mram&) = delete;
  Mram& operator=(const Mram&) = delete;

  u64 capacity() const noexcept { return capacity_; }
  // Resident bytes: kPageBytes per page written at least once (the
  // allocation footprint of the simulation).
  u64 touched() const noexcept {
    // Relaxed: an observability count, not a synchronization point.
    return resident_pages_.load(std::memory_order_relaxed) * kPageBytes;
  }

  void read(u64 addr, void* dst, usize bytes) const;
  void write(u64 addr, const void* src, usize bytes);

  template <typename T>
  T read_pod(u64 addr) const {
    T value{};
    read(addr, &value, sizeof(T));
    return value;
  }

  template <typename T>
  void write_pod(u64 addr, const T& value) {
    write(addr, &value, sizeof(T));
  }

 private:
  void check_range(u64 addr, usize bytes) const;
  // The page holding `index`, allocated and installed if absent.
  u8* page_for_write(u64 index);

  u64 capacity_;
  u64 nr_pages_;
  // nullptr = never written (reads as zeros). Installed pages are
  // published with release and loaded with acquire, so a page's zero
  // fill happens-before any access through the pointer.
  std::unique_ptr<std::atomic<u8*>[]> pages_;
  std::atomic<u64> resident_pages_{0};
};

}  // namespace pimwfa::upmem
