// Gap-affine wavefront aligner (WFA), the algorithm of Marco-Sola et al.
// (Bioinformatics 2021) that the PIM paper ports to UPMEM.
//
// Exact global alignment in O(ns) time and O(s^2) memory, where s is the
// optimal gap-affine penalty: wavefronts are evaluated for increasing
// score, each first *extended* along matching diagonals (free matches),
// then the next score's wavefront is *computed* from the gap-affine
// recurrence until M[s][tlen - plen] reaches offset tlen. A backtrace over
// the stored wavefronts reconstructs the CIGAR. The recurrence, its row
// ranges and the backtrace are wfa/rule.hpp's, which the DPU kernel
// shares.
//
// Retained wavefronts come from the aligner's own arena, a SlabAllocator
// (see allocator.hpp). The PIM port's DPU kernel keeps its wavefronts in
// WRAM/MRAM through pim::MetaSpace (pim/meta_space.hpp) instead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"
#include "wfa/allocator.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::wfa {

class WfaAligner {
 public:
  // Wavefront retention policy (WFA2-lib's "memory modes").
  enum class MemoryMode {
    // Keep every wavefront: O(s^2) memory, enables the CIGAR backtrace.
    kHigh,
    // Keep only the last max(x, o+e)+1 wavefronts in a ring: memory
    // bounded by O(max_penalty * (n+m)) independent of the score. Applies
    // to score-only alignment; full alignments always retain (a backtrace
    // needs the history).
    kLow,
    // BiWFA (Marco-Sola et al. 2023): meet-in-the-middle bidirectional
    // score-only rings find the optimal breakpoint, then recurse on the
    // two halves until each fits a small kHigh base case. O(s) peak
    // memory at ~2x compute; scores are bit-identical to kHigh and the
    // stitched CIGAR is verified (its gap-affine cost must equal the
    // bidirectional score). Works for both score-only and full scope.
    kUltralow,
  };

  // Boundary component of a partial alignment (see wfa::Component).
  using Component = wfa::Component;

  // Optimal meeting point reported by the bidirectional score pass.
  struct Breakpoint {
    i64 total = 0;          // optimal score of the whole (sub)problem
    i64 score_forward = 0;  // forward-half score at the detected meet
    i64 score_reverse = 0;  // reverse-half score at the detected meet
    i32 k = 0;              // forward diagonal of the meet
    Offset offset = 0;      // forward text offset of the meet
    Component comp = Component::kM;  // component the meet lies in
  };

  // One subproblem of the kUltralow recursion: pattern [v0, v1) against
  // text [h0, h1) of a pair, entered in `begin`, left in `end`, and
  // bounded by `score_cap`.
  struct Subproblem {
    usize v0 = 0, v1 = 0;
    usize h0 = 0, h1 = 0;
    Component begin = Component::kM;
    Component end = Component::kM;
    i64 score_cap = 0;
  };

  // The split step of the kUltralow recursion over a subproblem with a
  // non-empty pattern and text: its optimal score and either the base-case
  // verdict (align it whole with ultralow_base_case) or the two halves it
  // splits into at the bidirectional breakpoint, in the pair's
  // coordinates, with their seam components and score caps.
  struct UltralowSplit {
    i64 total = 0;
    bool base_case = false;
    Subproblem halves[2];
  };

  struct Options {
    align::Penalties penalties = align::Penalties::defaults();
    // Hard cap on the alignment score; 0 means "auto" (the worst-case
    // score of each pair, which always terminates). A positive cap turns
    // WFA into a thresholded aligner: exceeding pairs throw Error.
    i64 max_score = 0;
    MemoryMode memory_mode = MemoryMode::kHigh;
    // kUltralow recursion switches to a retained (kHigh) base case once a
    // subproblem's estimated wavefront arena fits this budget. Smaller
    // budgets recurse deeper (lower peak memory, more recompute).
    u64 ultralow_base_wavefront_bytes = 4u << 20;
    // Inner-loop kernels (extend match scan + recurrence row). Null uses
    // the portable scalar defaults; the SIMD backend plugs in vectorized
    // implementations, which must stay bit-identical (see kernels.hpp).
    const WfaKernels* kernels = nullptr;
  };

  explicit WfaAligner(Options options);
  explicit WfaAligner(align::Penalties penalties)
      : WfaAligner(Options{penalties, 0}) {}

  // Align `pattern` vs `text` end-to-end (global alignment) and return the
  // gap-affine penalty (+ CIGAR if `scope` is kFull). Reusable across
  // calls: the arena and the rings are recycled.
  align::AlignmentResult align(std::string_view pattern, std::string_view text,
                               align::AlignmentScope scope);

  // Align a partial pair whose path enters in component `begin` and leaves
  // in component `end` (see Component). Honors the configured memory mode;
  // kM/kM is exactly align(). Used by the kUltralow recursion and by the
  // PIM tiling planner/stitcher.
  align::AlignmentResult align_span(std::string_view pattern,
                                    std::string_view text,
                                    align::AlignmentScope scope,
                                    Component begin, Component end);

  // Bidirectional score-only pass (BiWFA): forward and reverse ring
  // wavefronts advance by anti-diagonal progress until they meet; returns
  // the optimal score of the (sub)problem plus the meeting point to cut
  // at. Requires non-empty pattern and text. Throws Error if the score
  // cap is exceeded before a provably optimal meet is found.
  Breakpoint find_breakpoint(std::string_view pattern, std::string_view text,
                             Component begin, Component end, i64 score_cap);

  // The kUltralow recursion, one step at a time: the recursion of
  // align_span in kUltralow mode, full scope, is exactly ultralow_split on
  // the whole pair, ultralow_base_case on every base case, a plain gap run
  // for every half with an empty side, and ultralow_split again on every
  // other half, concatenated left to right. `pattern` and `text` are the
  // whole pair; `sub` selects the subproblem. The base case is a retained
  // pass whose score must equal `total`, the split step's score.
  UltralowSplit ultralow_split(std::string_view pattern, std::string_view text,
                               const Subproblem& sub);
  align::AlignmentResult ultralow_base_case(std::string_view pattern,
                                            std::string_view text,
                                            const Subproblem& sub, i64 total);

  const align::Penalties& penalties() const noexcept {
    return options_.penalties;
  }

  // Cumulative work counters (see WfaCounters); reset with reset_counters().
  const WfaCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_.reset(); }

  const SlabAllocator& allocator() const noexcept { return allocator_; }

 private:
  // Ring storage for the score-only passes (kLow and each direction of
  // kUltralow); slot vectors are retained across alignments.
  struct RingSlot {
    WavefrontSet set;
    std::vector<Offset> m, i, d;
    u64 bytes = 0;  // payload bytes currently bound into `set`
  };
  struct ScoreRing {
    std::vector<RingSlot> slots;
    usize ring_size = 0;
    i64 score = -1;         // last computed score row
    u64 live_bytes = 0;     // payload bound across all live rows
    i64 max_antidiag = -1;  // furthest v+h sampled so far (progress)
    std::string_view pattern, text;  // possibly reversed views
    Component begin = Component::kM;
  };

  Wavefront new_wavefront(i32 lo, i32 hi);
  // Extend matches along every diagonal of `m`; returns true if the
  // termination cell (k = tlen - plen reaching offset tlen) was hit.
  bool extend_and_check(Wavefront& m, std::string_view pattern,
                        std::string_view text);
  // The score step compute_next and ring_step share: takes the source
  // sets from `row(s)` (null for a hole or a score out of range), the row
  // range from rule::RowRange, binds the three rows of `out` with
  // `bind(out, lo, hi)`, runs the row kernel and counts the cells. `out`
  // stays null for a hole.
  template <class Row, class Bind>
  void step_row(i64 score, Row row, i32 pl, i32 tl, WavefrontSet& out,
                Bind bind);
  // Compute wavefront set for `score` from stored predecessors.
  void compute_next(i64 score, usize plen, usize tlen);
  // Seed/advance/query one score-only ring (the kLow machinery).
  void ring_init(ScoreRing& ring, std::string_view pattern,
                 std::string_view text, Component begin);
  const WavefrontSet& ring_step(ScoreRing& ring);
  const WavefrontSet* ring_row(const ScoreRing& ring, i64 score) const;
  Wavefront bind_ring_front(ScoreRing& ring, RingSlot& slot,
                            std::vector<Offset>& storage, i32 lo, i32 hi);
  void ring_release(ScoreRing& ring);
  void update_progress(ScoreRing& ring, const Wavefront& m);
  // Ring-buffered score-only pass (MemoryMode::kLow).
  i64 score_low_memory(std::string_view pattern, std::string_view text,
                       i64 score_cap, Component begin, Component end);
  // Recursive BiWFA alignment (MemoryMode::kUltralow, full scope) of
  // subproblem `sub` of the pair; appends its CIGAR to `out` and returns
  // its optimal score.
  i64 ultralow_recurse(std::string_view pattern, std::string_view text,
                       const Subproblem& sub, seq::Cigar& out);
  // kHigh pass over one (sub)problem with boundary components; used both
  // by align()/align_span() directly and as the recursion base case.
  align::AlignmentResult align_retained(std::string_view pattern,
                                        std::string_view text,
                                        align::AlignmentScope scope,
                                        Component begin, Component end,
                                        i64 score_cap);
  void note_live_bytes();

  Options options_;
  WfaKernels kernels_;
  SlabAllocator allocator_;
  std::vector<WavefrontSet> sets_;  // indexed by score (bookkeeping only)
  ScoreRing ring_;       // kLow ring; also kUltralow's forward direction
  ScoreRing rev_ring_;   // kUltralow's reverse direction
  // Reversed copies of the strings for the reverse direction (reused
  // buffers; std::string_view cannot express a reversed traversal).
  std::string rev_pattern_, rev_text_;
  u64 retained_bytes_ = 0;  // payload allocated by the current kHigh pass
  WfaCounters counters_;
};

}  // namespace pimwfa::wfa
