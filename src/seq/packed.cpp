#include "seq/packed.hpp"

#include <cstring>

#include "common/check.hpp"

namespace pimwfa::seq {

PackedSequence::PackedSequence(std::string_view sequence)
    : size_(sequence.size()), bytes_(packed_bytes(sequence.size()), 0) {
  pack_into(sequence, bytes_.data());
}

std::string PackedSequence::unpack() const {
  return unpack_from(bytes_.data(), size_);
}

void PackedSequence::pack_into(std::string_view sequence, u8* out) {
  if (sequence.empty()) return;  // out may be null for the empty packing
  std::memset(out, 0, packed_bytes(sequence.size()));
  for (usize i = 0; i < sequence.size(); ++i) {
    PIMWFA_ARG_CHECK(is_packable_base(sequence[i]),
                     "cannot pack base '" << sequence[i] << "' at index " << i
                                          << " (only A, C, G and T pack)");
    const u8 code = encode_base(sequence[i]);
    out[i >> 2] |= static_cast<u8>(code << ((i & 3u) * 2));
  }
}

std::string PackedSequence::unpack_from(const u8* packed, usize bases) {
  std::string out(bases, '\0');
  for (usize i = 0; i < bases; ++i) {
    out[i] = decode_base(static_cast<u8>((packed[i >> 2] >> ((i & 3u) * 2)) & 3u));
  }
  return out;
}

}  // namespace pimwfa::seq
