#include "map/index.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "seq/alphabet.hpp"

namespace pimwfa::map {

KmerIndex::KmerIndex(std::string_view reference, usize k) : k_(k) {
  PIMWFA_ARG_CHECK(k >= kMinK && k <= kMaxK,
                   "seed length k=" << k << " outside [" << kMinK << ", "
                                    << kMaxK << "]");
  const usize n = reference.size();
  PIMWFA_ARG_CHECK(n <= std::numeric_limits<u32>::max(),
                   "reference of " << n << " bases exceeds the u32 position "
                                      "limit of the k-mer index");
  if (n < k) return;
  const usize bits = std::min<usize>(2 * k, 16);
  shift_ = 2 * k - bits;
  const usize slots = usize{1} << bits;

  // Calls visit(code, position) for every valid window, in position
  // order: a rolling 2-bit code over the current run of valid bases. An
  // invalid base resets the run, so windows overlapping it are never
  // encoded.
  const u64 mask = (u64{1} << (2 * k)) - 1;
  const auto for_each_window = [&](auto&& visit) {
    u64 code = 0;
    usize run = 0;
    for (usize i = 0; i < n; ++i) {
      const u8 base = seq::encode_base(reference[i]);
      if (base == seq::kInvalidCode) {
        run = 0;
        code = 0;
        continue;
      }
      code = ((code << 2) | base) & mask;
      if (++run >= k) visit(code, static_cast<u32>(i + 1 - k));
    }
  };

  // Counting sort of the (code, position) pairs by directory slot keeps
  // positions ascending within each slot; sorting a slot's few pairs
  // then orders them by code, then position.
  std::vector<u32> slot_next(slots + 1, 0);
  for_each_window([&](u64 code, u32) { ++slot_next[(code >> shift_) + 1]; });
  std::partial_sum(slot_next.begin(), slot_next.end(), slot_next.begin());
  const usize indexed = slot_next[slots];
  skipped_ = (n - k + 1) - indexed;
  if (indexed == 0) return;
  std::vector<std::pair<u64, u32>> hits(indexed);
  for_each_window([&](u64 code, u32 position) {
    hits[slot_next[code >> shift_]++] = {code, position};
  });
  usize begin = 0;  // slot_next[s] now ends slot s
  for (usize slot = 0; slot < slots; ++slot) {
    std::sort(hits.begin() + begin, hits.begin() + slot_next[slot]);
    begin = slot_next[slot];
  }

  usize distinct = 1;
  for (usize i = 1; i < indexed; ++i) {
    distinct += hits[i].first != hits[i - 1].first;
  }
  codes_.reserve(distinct);
  starts_.reserve(distinct + 1);
  positions_.reserve(indexed);
  for (usize i = 0; i < indexed; ++i) {
    if (i == 0 || hits[i].first != hits[i - 1].first) {
      codes_.push_back(hits[i].first);
      starts_.push_back(static_cast<u32>(i));
    }
    positions_.push_back(hits[i].second);
  }
  starts_.push_back(static_cast<u32>(indexed));

  // buckets_[s] is the first code whose slot is >= s.
  buckets_.resize(slots + 1);
  usize c = 0;
  for (usize slot = 0; slot <= slots; ++slot) {
    while (c < codes_.size() && (codes_[c] >> shift_) < slot) ++c;
    buckets_[slot] = static_cast<u32>(c);
  }
}

bool KmerIndex::kmer_code(std::string_view kmer, u64& code) const {
  PIMWFA_ARG_CHECK(kmer.size() == k_, "kmer_code: length " << kmer.size()
                                                           << " != k " << k_);
  u64 rolling = 0;
  for (const char c : kmer) {
    const u8 base = seq::encode_base(c);
    if (base == seq::kInvalidCode) return false;
    rolling = (rolling << 2) | base;
  }
  code = rolling;
  return true;
}

std::span<const u32> KmerIndex::lookup(std::string_view kmer) const {
  u64 code = 0;
  if (!kmer_code(kmer, code) || codes_.empty()) return {};
  const usize slot = static_cast<usize>(code >> shift_);
  const auto first = codes_.begin() + buckets_[slot];
  const auto last = codes_.begin() + buckets_[slot + 1];
  const auto hit = std::lower_bound(first, last, code);
  if (hit == last || *hit != code) return {};
  const usize i = static_cast<usize>(hit - codes_.begin());
  return {positions_.data() + starts_[i], starts_[i + 1] - starts_[i]};
}

usize KmerIndex::memory_bytes() const noexcept {
  return codes_.size() * sizeof(u64) +
         (starts_.size() + positions_.size() + buckets_.size()) * sizeof(u32);
}

}  // namespace pimwfa::map
