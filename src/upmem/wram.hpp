// Simulated WRAM: the 64 KB SRAM scratchpad shared by all tasklets of one
// DPU. Kernels address it through offsets handed out by the per-launch
// layout (see TaskletCtx::wram_alloc); load/store helpers bounds-check.
// The storage never moves, so a pointer from at() stays valid for the
// Wram's lifetime.
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pimwfa::upmem {

class Wram {
 public:
  explicit Wram(u64 capacity_bytes)
      : store_(static_cast<usize>(capacity_bytes), 0) {
    PIMWFA_ARG_CHECK(capacity_bytes > 0, "WRAM capacity must be positive");
  }

  u64 capacity() const noexcept { return store_.size(); }

  // Raw pointer to an offset, validated against [offset, offset+bytes).
  u8* at(u64 offset, usize bytes) {
    check_range(offset, bytes);
    return store_.data() + offset;
  }
  const u8* at(u64 offset, usize bytes) const {
    check_range(offset, bytes);
    return store_.data() + offset;
  }

  template <typename T>
  T load(u64 offset) const {
    T value{};
    std::memcpy(&value, at(offset, sizeof(T)), sizeof(T));
    return value;
  }

  template <typename T>
  void store(u64 offset, const T& value) {
    std::memcpy(at(offset, sizeof(T)), &value, sizeof(T));
  }

  void fill(u8 value) { std::fill(store_.begin(), store_.end(), value); }

 private:
  void check_range(u64 offset, usize bytes) const {
    if (offset > store_.size() || bytes > store_.size() - offset) [[unlikely]] {
      range_fault(offset, bytes);
    }
  }
  // Raises the HardwareFault for an access check_range rejected. Cold and
  // out of line, so at() inlines to a compare and an add.
  [[noreturn]] void range_fault(u64 offset, usize bytes) const;

  std::vector<u8> store_;
};

}  // namespace pimwfa::upmem
