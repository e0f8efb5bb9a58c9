// MRAM layout of one DPU's alignment batch.
//
// The host writes, per DPU:
//
//   [ BatchHeader | pair records ... | result records ... | per-tasklet
//     metadata arenas ... ]
//
// All records are fixed-stride and 8-byte aligned so that both the host
// writes and the DPU's DMA reads respect the UPMEM alignment restriction.
//
//   PairRecord   = { u32 pattern_len; u32 text_len;
//                    char pattern[pad8(max_pattern)];
//                    char text[pad8(max_text)]; }
//                  (with packed_sequences, the sequence fields hold 2-bit
//                  packed bases - pad8(ceil(len/4)) bytes - quartering the
//                  scatter volume that dominates Fig. 1's Total time)
//   ResultRecord = { i32 score; u32 cigar_len;
//                    char cigar_ops[pad8(max_pattern + max_text)]; }
//                  (the ops field is omitted in score-only batches)
//
// The per-tasklet metadata arena is where the WFA wavefront metadata lives
// under the paper's metadata-in-MRAM policy: a descriptor table indexed by
// score, followed by bump-allocated offset arrays.
#pragma once

#include "align/penalties.hpp"
#include "common/types.hpp"
#include "upmem/config.hpp"

namespace pimwfa::pim {

// Long-pair tiling rides the boundary components of a segment (see
// wfa::Component and pim/tiling.hpp) in the top two bits of
// the PairRecord length fields: 0 = M, 1 = I, 2 = D. Plain pairs encode
// 0/0, so untiled batches are byte-identical to the pre-tiling format.
inline constexpr u32 kPairLenMask = 0x3FFFFFFFu;
inline constexpr u32 kPairCompShift = 30;

inline constexpr u32 encode_pair_len(usize len, u32 comp) noexcept {
  return static_cast<u32>(len) | (comp << kPairCompShift);
}

enum class MetadataPolicy : u32 {
  kMram = 0,  // paper's design: metadata in MRAM, staged through WRAM
  kWram = 1,  // ablation: metadata wholly in WRAM (limits tasklet count)
};

// Fixed-size header at MRAM address 0. POD, 8-byte multiple.
struct BatchHeader {
  u32 magic = kMagic;
  u32 version = 1;
  u32 nr_pairs = 0;
  u32 nr_tasklets = 0;
  u32 max_pattern = 0;
  u32 max_text = 0;
  i32 mismatch = 0;
  i32 gap_open = 0;
  i32 gap_extend = 0;
  u32 full_alignment = 0;  // 0 = score-only, 1 = score + CIGAR
  u32 policy = 0;          // MetadataPolicy
  u32 packed_sequences = 0;  // 1 = pair records hold 2-bit packed bases
  u64 pairs_addr = 0;
  u64 pair_stride = 0;
  u64 results_addr = 0;
  u64 result_stride = 0;
  u64 scratch_addr = 0;    // first tasklet's metadata arena
  u64 scratch_stride = 0;  // arena bytes per tasklet
  u64 max_score = 0;       // score cap = descriptor table length - 1

  static constexpr u32 kMagic = 0x50574641;  // "PWFA"
};
static_assert(sizeof(BatchHeader) % 8 == 0);
static_assert(sizeof(BatchHeader) == 104);

// Wavefront-set descriptor stored in the per-tasklet MRAM arena, one per
// score. Addresses are absolute MRAM addresses of the component offset
// arrays; 0 means "component does not exist" (0 is the header, never a
// valid array).
struct WfDesc {
  u64 m_addr = 0;
  u64 i_addr = 0;
  u64 d_addr = 0;
  i32 lo = 0;
  i32 hi = -1;

  bool exists() const noexcept { return m_addr != 0; }
};
static_assert(sizeof(WfDesc) == 32);

// Computed layout for one DPU's batch.
class BatchLayout {
 public:
  struct Params {
    usize nr_pairs = 0;
    usize nr_tasklets = 1;
    usize max_pattern = 0;
    usize max_text = 0;
    align::Penalties penalties{};
    bool full_alignment = true;
    MetadataPolicy policy = MetadataPolicy::kMram;
    // Transfer sequences 2-bit packed (optimization beyond the paper).
    bool packed_sequences = false;
    // Score cap; 0 = worst case for (max_pattern, max_text). Determines
    // the descriptor-table size in each arena.
    u64 max_score = 0;
  };

  // Plans the layout; throws Error if it cannot fit in `mram_bytes`.
  static BatchLayout plan(const Params& params, u64 mram_bytes);

  const BatchHeader& header() const noexcept { return header_; }

  u64 pair_addr(usize index) const noexcept {
    return header_.pairs_addr + index * header_.pair_stride;
  }
  u64 result_addr(usize index) const noexcept {
    return header_.results_addr + index * header_.result_stride;
  }
  u64 arena_addr(usize tasklet) const noexcept {
    return header_.scratch_addr + tasklet * header_.scratch_stride;
  }

  // Byte counts.
  usize pattern_field_bytes() const noexcept { return pattern_pad_; }
  usize text_field_bytes() const noexcept { return text_pad_; }
  usize cigar_field_bytes() const noexcept { return cigar_pad_; }
  u64 total_bytes() const noexcept { return end_; }
  u64 pairs_bytes() const noexcept {
    return header_.nr_pairs * header_.pair_stride;
  }
  u64 results_bytes() const noexcept {
    return header_.nr_pairs * header_.result_stride;
  }
  // Descriptor-table bytes inside each arena (the rest is the offset heap).
  u64 desc_table_bytes() const noexcept {
    return (header_.max_score + 1) * sizeof(WfDesc);
  }

 private:
  BatchHeader header_{};
  usize pattern_pad_ = 0;
  usize text_pad_ = 0;
  usize cigar_pad_ = 0;
  u64 end_ = 0;
};

}  // namespace pimwfa::pim
