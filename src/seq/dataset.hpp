// Read-pair dataset container with a compact binary on-disk format.
//
// A ReadPairSet is the unit of work for the batch aligners: the paper's
// Fig. 1 workload is a ReadPairSet of 5 million (pattern, text) pairs of
// nominal length 100bp generated at edit-distance threshold E.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "seq/lifetime.hpp"

namespace pimwfa::seq {

struct ReadPair {
  std::string pattern;  // e.g. the read
  std::string text;     // e.g. the candidate reference window

  bool operator==(const ReadPair&) const = default;
};

// Summary statistics over a ReadPairSet.
struct DatasetStats {
  usize pairs = 0;
  usize min_length = 0;
  usize max_length = 0;
  double mean_pattern_length = 0.0;
  double mean_text_length = 0.0;
  u64 total_bases = 0;
};

class ReadPairSet {
 public:
  ReadPairSet() = default;
  explicit ReadPairSet(std::vector<ReadPair> pairs) : pairs_(std::move(pairs)) {}

#if PIMWFA_CHECKED_VIEWS
  // The debug borrow checker (seq/lifetime.hpp) needs the full rule of
  // five: copies get a fresh control block (their borrows are
  // independent), assignment and move-from bump the affected blocks
  // (every span over the old contents is invalidated), destruction
  // retires the block so surviving spans report "destroyed" instead of
  // reading freed memory. Without PIMWFA_CHECKED_VIEWS the implicit
  // special members apply unchanged.
  ReadPairSet(const ReadPairSet& other);
  ReadPairSet& operator=(const ReadPairSet& other);
  ReadPairSet(ReadPairSet&& other);
  ReadPairSet& operator=(ReadPairSet&& other);
  ~ReadPairSet();

  // Current mutation generation; a span is valid while its recorded
  // generation still matches.
  u64 generation() const noexcept {
    return control_->generation.load(std::memory_order_acquire);
  }
  const detail::ViewControlPtr& view_control() const noexcept {
    return control_;
  }
#endif

  usize size() const noexcept { return pairs_.size(); }
  bool empty() const noexcept { return pairs_.empty(); }

  const ReadPair& operator[](usize i) const { return pairs_[i]; }
  const std::vector<ReadPair>& pairs() const noexcept { return pairs_; }

  void add(ReadPair pair) {
    invalidate_views();
    pairs_.push_back(std::move(pair));
  }
  void reserve(usize n) {
    // Growth may reallocate the pair storage; a no-op reserve keeps
    // element addresses and therefore existing views.
    if (n > pairs_.capacity()) invalidate_views();
    pairs_.reserve(n);
  }

  // Drops all pairs but keeps the allocated capacity, so a recycled
  // arena (align::AlignService's ring) refills without reallocating.
  // Bumps the generation: spans over the old contents fail
  // deterministically instead of reading recycled storage.
  void clear() noexcept {
    invalidate_views();
    pairs_.clear();
  }

  // Generation provenance, carried through serialization (0/NaN if unknown).
  u64 seed = 0;
  double error_rate = 0.0;
  usize nominal_read_length = 0;

  DatasetStats stats() const;

  // Longest pattern/text over all pairs (0 for empty set). The PIM layout
  // sizes its per-pair MRAM slots from these.
  usize max_pattern_length() const noexcept;
  usize max_text_length() const noexcept;

  // Binary serialization (magic+version header, then length-prefixed
  // sequences). Throws IoError on failure.
  void save(const std::string& path) const;
  static ReadPairSet load(const std::string& path);

  // A deterministic subset with every k-th pair (used by the scaled-down
  // bench runs; preserves the score distribution of a uniform workload).
  ReadPairSet sample_every(usize stride) const;

  bool operator==(const ReadPairSet& other) const noexcept {
    return pairs_ == other.pairs_;
  }

 private:
  // Every mutating operation calls this before touching pairs_; spans
  // taken earlier then fail deterministically instead of dangling.
  void invalidate_views() noexcept {
#if PIMWFA_CHECKED_VIEWS
    control_->bump();
#endif
  }

  std::vector<ReadPair> pairs_;
#if PIMWFA_CHECKED_VIEWS
  detail::ViewControlPtr control_ = std::make_shared<detail::ViewControl>();
#endif
};

}  // namespace pimwfa::seq
