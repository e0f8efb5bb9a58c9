// Exact k-mer index over a reference sequence: the seeding stage of the
// read mapper.
//
// Every length-k window of the reference is 2-bit encoded into a u64
// code. Windows containing any non-ACGT base (N runs, IUPAC ambiguity
// codes) are *skipped*, never encoded: OR-ing seq::encode_base's 0xff
// invalid-code sentinel into a 2-bit rolling code floods the low byte
// and collides distinct k-mers - the historical read_mapper bug this
// index replaces. Windows are encoded by a rolling pass in which each
// invalid base simply resets the valid-run length, so an N-dense
// reference indexes in O(length) regardless of how the runs are placed.
// The build makes two such passes, counting then placing each window by
// its directory slot, and sorts each slot's few windows by code. Case
// folds (encode_base reads `a` as `A`).
//
// Layout: flat sorted arrays, as minimap2 stores its seeds (Li,
// Bioinformatics 2018).
//   codes_      distinct k-mer codes, ascending (u64 each);
//   starts_     codes_.size() + 1 offsets into positions_ (u32 each);
//   positions_  every indexed window start, grouped by code and
//               ascending within each code (u32 each);
//   buckets_    a directory over the codes' top min(2k, 16) bits:
//               2^bits + 1 offsets into codes_ (256 KiB at k = 11), so a
//               lookup binary-searches the one or two codes sharing its
//               slot instead of all of them.
// That is about 17 bytes per indexed position on a 120 kb reference,
// against about 83 for a hash map of per-k-mer vectors, and no per-k-mer
// heap block. Positions are u32: a reference longer than UINT32_MAX
// bases is rejected.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::map {

class KmerIndex {
 public:
  // Smallest/largest supported seed length: 2 bits per base must fit a
  // u64 with room for every code to be distinct (k <= 31 keeps the top
  // bits clear so no masking subtleties arise at k == 32).
  static constexpr usize kMinK = 4;
  static constexpr usize kMaxK = 31;

  // Indexes every valid k-mer of `reference`. The reference is *not*
  // retained; positions refer into the caller's string. Throws
  // InvalidArgument for k outside [kMinK, kMaxK] and for a reference
  // longer than UINT32_MAX bases.
  KmerIndex(std::string_view reference, usize k);

  // 2-bit code of `kmer` (whose size must be k()). Returns false - and
  // leaves `code` untouched - when any base is invalid; an invalid base
  // must never reach the index.
  bool kmer_code(std::string_view kmer, u64& code) const;

  // Reference start positions whose k-mer equals `kmer`, ascending
  // (empty for unseen k-mers and for k-mers containing invalid bases).
  // The span points into the index and stays valid while it lives.
  std::span<const u32> lookup(std::string_view kmer) const;

  usize k() const noexcept { return k_; }
  usize distinct_kmers() const noexcept { return codes_.size(); }
  // Windows indexed / skipped because they contained an invalid base.
  usize indexed_positions() const noexcept { return positions_.size(); }
  usize skipped_positions() const noexcept { return skipped_; }
  // Exact bytes held by the four arrays.
  usize memory_bytes() const noexcept;

 private:
  usize k_;
  usize shift_ = 0;  // code >> shift_ is the code's directory slot
  std::vector<u64> codes_;
  std::vector<u32> starts_;
  std::vector<u32> positions_;
  std::vector<u32> buckets_;
  usize skipped_ = 0;
};

}  // namespace pimwfa::map
