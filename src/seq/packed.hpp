// 2-bit packed DNA sequence. Four bases per byte, base i in bits
// (2*(i%4))..(2*(i%4)+1) of byte i/4. Used to shrink MRAM footprints and
// host<->DPU transfer sizes (a 100bp read packs into 25 bytes).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "seq/alphabet.hpp"

namespace pimwfa::seq {

// True iff `base` is one of the four characters the 2-bit code holds:
// upper-case A, C, G or T. Lower case and N do not pack (encode_base folds
// case, so packing through it would silently turn 'a' into 'A').
constexpr bool is_packable_base(char base) noexcept {
  return base == 'A' || base == 'C' || base == 'G' || base == 'T';
}

class PackedSequence {
 public:
  PackedSequence() = default;

  // Packs an upper-case ACGT string; throws InvalidArgument on any other
  // character (see is_packable_base).
  explicit PackedSequence(std::string_view sequence);

  usize size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  // 2-bit code of base at `index` (bounds-checked in debug builds).
  u8 code_at(usize index) const noexcept {
    return static_cast<u8>((bytes_[index >> 2] >> ((index & 3u) * 2)) & 3u);
  }

  char char_at(usize index) const noexcept { return decode_base(code_at(index)); }

  // Unpack back into an ACGT string.
  std::string unpack() const;

  // Raw packed bytes (ceil(size/4) of them).
  const std::vector<u8>& bytes() const noexcept { return bytes_; }

  // Number of bytes needed to pack `bases` bases.
  static constexpr usize packed_bytes(usize bases) noexcept {
    return (bases + 3) / 4;
  }

  // Pack directly into an external buffer (for MRAM staging). `out` must
  // have at least packed_bytes(sequence.size()) bytes.
  static void pack_into(std::string_view sequence, u8* out);

  // Unpack `bases` bases from an external packed buffer.
  static std::string unpack_from(const u8* packed, usize bases);

  bool operator==(const PackedSequence& other) const noexcept {
    return size_ == other.size_ && bytes_ == other.bytes_;
  }

 private:
  usize size_ = 0;
  std::vector<u8> bytes_;
};

}  // namespace pimwfa::seq
