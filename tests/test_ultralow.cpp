// MemoryMode::kUltralow (BiWFA): meet-in-the-middle correctness.
//
// The SNIPPETS.md duckdb-miint lesson drives the structure here:
// score-scope and alignment-scope BiWFA are separate code paths
// (find_breakpoint vs ultralow_recurse) with separate bug surfaces, so
// every suite exercises BOTH through separate aligner instances.
#include <gtest/gtest.h>

#include <string>

#include "align/verify.hpp"
#include "common/error.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::wfa {
namespace {

using align::AlignmentScope;
using align::Penalties;

WfaAligner::Options ultralow_options(Penalties penalties = Penalties::defaults()) {
  WfaAligner::Options options;
  options.penalties = penalties;
  options.memory_mode = WfaAligner::MemoryMode::kUltralow;
  return options;
}

// Cross-check one pair in both scopes, each through its own instance, vs
// a kHigh reference. Scores must match everywhere; CIGARs must match the
// backtrace bit-for-bit.
void expect_matches_high(const std::string& pattern, const std::string& text,
                         Penalties penalties = Penalties::defaults()) {
  WfaAligner high(penalties);
  WfaAligner score_scope(ultralow_options(penalties));
  WfaAligner align_scope(ultralow_options(penalties));

  const auto ref = high.align(pattern, text, AlignmentScope::kFull);
  const auto score_only =
      score_scope.align(pattern, text, AlignmentScope::kScoreOnly);
  const auto full = align_scope.align(pattern, text, AlignmentScope::kFull);

  EXPECT_EQ(score_only.score, ref.score) << pattern << " / " << text;
  ASSERT_EQ(full.score, ref.score) << pattern << " / " << text;
  EXPECT_EQ(full.cigar.ops(), ref.cigar.ops()) << pattern << " / " << text;
  EXPECT_NO_THROW(align::verify_result(full, pattern, text, penalties));
}

TEST(Ultralow, IdenticalSequences) {
  // All-match: the bidirectional pass meets at score 0+0 and the
  // breakpoint may land on a corner - must not recurse forever.
  expect_matches_high("ACGTACGTAC", "ACGTACGTAC");
  expect_matches_high("A", "A");
}

TEST(Ultralow, SingleEdits) {
  expect_matches_high("ACGT", "AGGT");   // mismatch
  expect_matches_high("ACGT", "ACGGT");  // insertion
  expect_matches_high("ACGGT", "ACGT");  // deletion
}

TEST(Ultralow, EmptyAndGapOnly) {
  // All-gap pairs: degenerate halves never reach find_breakpoint.
  expect_matches_high("", "");
  expect_matches_high("", "ACGTT");
  expect_matches_high("ACGTT", "");
  // Near-degenerate: one base against a long run.
  expect_matches_high("A", "AAAAAAAA");
  expect_matches_high("AAAAAAAA", "A");
}

TEST(Ultralow, GapAtEachEnd) {
  // The optimal path enters/leaves through I or D at the sequence ends,
  // exercising the end-component score shift in breakpoint detection.
  expect_matches_high("AC", "ACGG");
  expect_matches_high("GGAC", "AC");
  expect_matches_high("ACGG", "AC");
  expect_matches_high("AC", "GGAC");
}

TEST(Ultralow, EqualCostMeets) {
  // Several co-optimal paths of the same score: ties must resolve to the
  // same CIGAR the kHigh backtrace picks (sub > ins > del preference).
  expect_matches_high("AAAA", "TTTT");
  expect_matches_high("ACACAC", "CACACA");
  expect_matches_high("AGCT", "TCGA");
}

TEST(Ultralow, AlternatePenalties) {
  const Penalties steep{8, 12, 1};
  const Penalties flat{2, 3, 1};
  expect_matches_high("ACGTACGTACGTACGT", "ACGTACGAACGTACGT", steep);
  expect_matches_high("ACGTACGTACGTACGT", "ACGTACGAACGTACGT", flat);
  expect_matches_high("AC", "ACGG", steep);
  expect_matches_high("AAAA", "TTTT", flat);
}

TEST(Ultralow, RandomSweepMatchesHigh) {
  Rng rng(0xB1DAu);
  for (usize length : {16u, 64u, 257u, 1000u}) {
    for (usize errors : {usize{0}, usize{1}, usize{5}, length / 10}) {
      const auto pair = testing::random_pair(rng, length, errors);
      expect_matches_high(pair.pattern, pair.text);
    }
  }
}

TEST(Ultralow, UnrelatedPairs) {
  // Worst case: score ~ worst_case_score, deep wavefronts both directions.
  Rng rng(0x0DDBA11u);
  const auto pair = testing::unrelated_pair(rng, 120, 140);
  expect_matches_high(pair.pattern, pair.text);
}

TEST(Ultralow, DeepRecursion) {
  // A tiny base-case budget forces the recursion to bottom out on
  // near-trivial subproblems, exercising many stitch seams.
  Rng rng(0xDEE9u);
  const auto pair = testing::random_pair(rng, 500, 25);
  WfaAligner high(Penalties::defaults());
  auto options = ultralow_options();
  options.ultralow_base_wavefront_bytes = 256;
  WfaAligner deep(options);

  const auto ref = high.align(pair.pattern, pair.text, AlignmentScope::kFull);
  const auto got = deep.align(pair.pattern, pair.text, AlignmentScope::kFull);
  ASSERT_EQ(got.score, ref.score);
  EXPECT_EQ(got.cigar.ops(), ref.cigar.ops());
}

TEST(Ultralow, RingReuseAcrossCalls) {
  // One instance, many alignments of varying shapes: ring buffers are
  // reused and must be fully re-seeded between calls.
  Rng rng(0x5EEDu);
  WfaAligner high(Penalties::defaults());
  WfaAligner ultra(ultralow_options());
  for (int i = 0; i < 20; ++i) {
    const usize length = 10 + static_cast<usize>(rng.next_below(300));
    const auto pair = testing::random_pair(rng, length, length / 12);
    const auto ref = high.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto got =
        ultra.align(pair.pattern, pair.text, AlignmentScope::kFull);
    ASSERT_EQ(got.score, ref.score) << "call " << i;
    EXPECT_EQ(got.cigar.ops(), ref.cigar.ops()) << "call " << i;
  }
}

TEST(Ultralow, ScopeInterleavingOneInstance) {
  // Alternating scopes on one instance must not cross-contaminate state.
  Rng rng(0x1A7E12u);
  WfaAligner high(Penalties::defaults());
  WfaAligner ultra(ultralow_options());
  for (int i = 0; i < 8; ++i) {
    const auto pair = testing::random_pair(rng, 150, 8);
    const auto ref = high.align(pair.pattern, pair.text, AlignmentScope::kFull);
    if (i % 2 == 0) {
      EXPECT_EQ(
          ultra.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
              .score,
          ref.score);
    } else {
      const auto got =
          ultra.align(pair.pattern, pair.text, AlignmentScope::kFull);
      ASSERT_EQ(got.score, ref.score);
      EXPECT_EQ(got.cigar.ops(), ref.cigar.ops());
    }
  }
}

TEST(Ultralow, MaxScoreCapThrowsWhenExceeded) {
  auto options = ultralow_options();
  options.max_score = 3;  // single mismatch costs 4
  for (auto scope : {AlignmentScope::kScoreOnly, AlignmentScope::kFull}) {
    WfaAligner capped(options);
    EXPECT_THROW(capped.align("ACGT", "AGGT", scope), Error);
  }
}

TEST(Ultralow, MaxScoreCapAdmitsExactScore) {
  auto options = ultralow_options();
  options.max_score = 4;
  for (auto scope : {AlignmentScope::kScoreOnly, AlignmentScope::kFull}) {
    WfaAligner capped(options);
    EXPECT_EQ(capped.align("ACGT", "AGGT", scope).score, 4);
  }
}

TEST(Ultralow, MaxScoreCapRecoverable) {
  // A throwing pair must not poison the instance for the next pair.
  auto options = ultralow_options();
  options.max_score = 10;
  WfaAligner capped(options);
  EXPECT_THROW(capped.align("AAAAAAAA", "TTTTTTTT", AlignmentScope::kFull),
               Error);
  const auto ok = capped.align("ACGT", "AGGT", AlignmentScope::kFull);
  EXPECT_EQ(ok.score, 4);
  EXPECT_EQ(ok.cigar.ops(), "MXMM");
}

TEST(Ultralow, PeakMemoryFarBelowHigh) {
  // The figure of merit: peak live wavefront bytes. At length 4000 with
  // ~5% errors the kHigh arena is tens of MB; kUltralow stays O(s).
  Rng rng(0x9EAEu);
  const auto pair = testing::random_pair(rng, 4000, 200);

  WfaAligner high(Penalties::defaults());
  auto options = ultralow_options();
  options.ultralow_base_wavefront_bytes = 64u << 10;
  WfaAligner ultra(options);

  const auto ref = high.align(pair.pattern, pair.text, AlignmentScope::kFull);
  const auto got = ultra.align(pair.pattern, pair.text, AlignmentScope::kFull);
  ASSERT_EQ(got.score, ref.score);
  EXPECT_EQ(got.cigar.ops(), ref.cigar.ops());

  const u64 high_peak = high.counters().peak_wavefront_bytes;
  const u64 ultra_peak = ultra.counters().peak_wavefront_bytes;
  ASSERT_GT(high_peak, 0u);
  ASSERT_GT(ultra_peak, 0u);
  EXPECT_GE(high_peak, 10 * ultra_peak)
      << "kHigh peak " << high_peak << " vs kUltralow peak " << ultra_peak;
}

TEST(Ultralow, BreakpointMatchesOptimalScore) {
  // find_breakpoint's total is the optimal score, and the reported meet
  // lies inside the problem rectangle.
  Rng rng(0xB9u);
  const auto pair = testing::random_pair(rng, 300, 15);
  WfaAligner high(Penalties::defaults());
  const auto ref =
      high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);

  WfaAligner ultra(ultralow_options());
  const auto bp = ultra.find_breakpoint(
      pair.pattern, pair.text, WfaAligner::Component::kM,
      WfaAligner::Component::kM, /*score_cap=*/1 << 20);
  EXPECT_EQ(bp.total, ref.score);
  const i32 v = bp.offset - bp.k;
  EXPECT_GE(v, 0);
  EXPECT_LE(v, static_cast<i32>(pair.pattern.size()));
  EXPECT_GE(bp.offset, 0);
  EXPECT_LE(bp.offset, static_cast<i32>(pair.text.size()));
  EXPECT_LE(bp.score_forward, bp.total);
  EXPECT_LE(bp.score_reverse, bp.total);
}

TEST(Ultralow, SpanCostsAreAdditive) {
  // Cutting at the reported breakpoint and aligning the halves as spans
  // (seam charging: gap_open paid where the run opens) must reproduce the
  // parent score exactly - the invariant PIM tiling relies on.
  Rng rng(0xADD17u);
  const auto pair = testing::random_pair(rng, 400, 30);
  using Component = WfaAligner::Component;

  WfaAligner planner(ultralow_options());
  const auto bp =
      planner.find_breakpoint(pair.pattern, pair.text, Component::kM,
                              Component::kM, /*score_cap=*/1 << 20);
  const usize v = static_cast<usize>(bp.offset - bp.k);
  const usize h = static_cast<usize>(bp.offset);

  WfaAligner left_aligner(Penalties::defaults());
  WfaAligner right_aligner(Penalties::defaults());
  const auto left = left_aligner.align_span(
      pair.pattern.substr(0, v), pair.text.substr(0, h),
      AlignmentScope::kFull, Component::kM, bp.comp);
  const auto right = right_aligner.align_span(
      pair.pattern.substr(v), pair.text.substr(h), AlignmentScope::kFull,
      bp.comp, Component::kM);

  // Span semantics: the right half's CIGAR may open with the seam run
  // whose gap_open the left half already paid.
  i64 right_cost = right.score;
  EXPECT_EQ(left.score + right_cost, bp.total);
}

TEST(Ultralow, SpanDegenerateSeamCharging) {
  // A degenerate span continuing its begin component pays extend only.
  WfaAligner aligner(Penalties::defaults());
  using Component = WfaAligner::Component;
  const auto cont = aligner.align_span("", "GG", AlignmentScope::kFull,
                                       Component::kI, Component::kM);
  EXPECT_EQ(cont.score, 2 * 2);  // 2 extends, no open
  EXPECT_EQ(cont.cigar.ops(), "II");
  const auto fresh = aligner.align_span("", "GG", AlignmentScope::kFull,
                                        Component::kD, Component::kM);
  EXPECT_EQ(fresh.score, 6 + 2 * 2);  // I-run does not continue a D seam
}

}  // namespace
}  // namespace pimwfa::wfa
