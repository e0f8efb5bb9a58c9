// Property-based sweeps across the whole aligner stack: invariants that
// must hold for every input, checked over randomized parameter grids
// (parameterized gtest).
#include <gtest/gtest.h>

#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "baselines/myers.hpp"
#include "baselines/nw.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::Penalties;

struct GridParam {
  usize length;
  double error_rate;
};

class AlignerProperties : public ::testing::TestWithParam<GridParam> {
 protected:
  seq::ReadPair next_pair(Rng& rng) const {
    const GridParam p = GetParam();
    return pimwfa::testing::random_pair(
        rng, p.length, seq::errors_for(p.length, p.error_rate));
  }
};

TEST_P(AlignerProperties, ScoreIsNonNegativeAndBounded) {
  Rng rng(101);
  wfa::WfaAligner aligner(Penalties::defaults());
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = next_pair(rng);
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_GE(result.score, 0);
    EXPECT_LE(result.score,
              align::worst_case_score(Penalties::defaults(),
                                      pair.pattern.size(), pair.text.size()));
  }
}

TEST_P(AlignerProperties, ScoreBoundedByAppliedEdits) {
  // Aligning a sequence against its own mutation: the optimal penalty can
  // never exceed the cost of the applied edit script.
  const GridParam p = GetParam();
  Rng rng(102);
  const Penalties penalties = Penalties::defaults();
  wfa::WfaAligner aligner(penalties);
  const usize errors = seq::errors_for(p.length, p.error_rate);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string pattern = seq::random_sequence(rng, p.length);
    const std::string text = seq::mutate_sequence(rng, pattern, errors);
    const auto result =
        aligner.align(pattern, text, AlignmentScope::kScoreOnly);
    // Worst script: every edit is its own gap.
    const i64 bound = static_cast<i64>(errors) *
                      std::max<i64>(penalties.mismatch,
                                    penalties.gap_open + penalties.gap_extend);
    EXPECT_LE(result.score, bound);
  }
}

TEST_P(AlignerProperties, SymmetryUnderSwap) {
  // Swapping pattern and text flips I<->D but preserves the score (the
  // penalty model is symmetric).
  Rng rng(103);
  wfa::WfaAligner aligner(Penalties::defaults());
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = next_pair(rng);
    const auto forward =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto backward =
        aligner.align(pair.text, pair.pattern, AlignmentScope::kFull);
    EXPECT_EQ(forward.score, backward.score);
    EXPECT_EQ(forward.cigar.insertions(), backward.cigar.deletions());
    EXPECT_EQ(forward.cigar.deletions(), backward.cigar.insertions());
  }
}

TEST_P(AlignerProperties, SelfAlignmentIsFreeAndAllMatches) {
  Rng rng(104);
  wfa::WfaAligner aligner(Penalties::defaults());
  const auto pair = next_pair(rng);
  const auto result =
      aligner.align(pair.pattern, pair.pattern, AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.cigar.matches(), pair.pattern.size());
}

TEST_P(AlignerProperties, CigarRoundTripsThroughRle) {
  Rng rng(105);
  wfa::WfaAligner aligner(Penalties::defaults());
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = next_pair(rng);
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    EXPECT_EQ(seq::Cigar::from_rle(result.cigar.to_rle()), result.cigar);
  }
}

TEST_P(AlignerProperties, ApplyCigarReconstructsText) {
  Rng rng(106);
  wfa::WfaAligner aligner(Penalties::defaults());
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = next_pair(rng);
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    EXPECT_EQ(result.cigar.apply(pair.pattern, pair.text), pair.text);
  }
}

TEST_P(AlignerProperties, EditDistanceLowerBoundsWeightedScore) {
  // With x=1,o=0,e=1 the affine score IS the edit distance; any valid
  // weighted score is >= edit distance (all unit costs are minimal).
  Rng rng(107);
  wfa::WfaAligner edit_aligner(Penalties::edit());
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = next_pair(rng);
    const i64 distance = baselines::levenshtein(pair.pattern, pair.text);
    EXPECT_EQ(edit_aligner
                  .align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
                  .score,
              distance);
  }
}

TEST_P(AlignerProperties, AllEditDistanceImplementationsAgree) {
  Rng rng(108);
  wfa::WfaAligner unit_wfa(Penalties::edit());
  for (int trial = 0; trial < 6; ++trial) {
    const auto pair = next_pair(rng);
    const i64 reference = baselines::levenshtein(pair.pattern, pair.text);
    EXPECT_EQ(baselines::myers_edit_distance(pair.pattern, pair.text),
              reference);
    EXPECT_EQ(baselines::ukkonen_edit_distance(pair.pattern, pair.text),
              reference);
    EXPECT_EQ(
        unit_wfa.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
            .score,
        reference);
  }
}

TEST_P(AlignerProperties, MoreErrorsNeverImproveExpectedScore) {
  // Aggregate monotonicity: the summed score over a batch grows with the
  // number of applied edits.
  const GridParam p = GetParam();
  if (p.error_rate == 0.0) GTEST_SKIP();
  Rng rng(109);
  wfa::WfaAligner aligner(Penalties::defaults());
  i64 low_total = 0;
  i64 high_total = 0;
  const usize low_errors = seq::errors_for(p.length, p.error_rate);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string pattern = seq::random_sequence(rng, p.length);
    const std::string low = seq::mutate_sequence(rng, pattern, low_errors);
    const std::string high =
        seq::mutate_sequence(rng, pattern, low_errors * 3);
    low_total +=
        aligner.align(pattern, low, AlignmentScope::kScoreOnly).score;
    high_total +=
        aligner.align(pattern, high, AlignmentScope::kScoreOnly).score;
  }
  EXPECT_LE(low_total, high_total);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AlignerProperties,
    ::testing::Values(GridParam{8, 0.1}, GridParam{32, 0.05},
                      GridParam{100, 0.0}, GridParam{100, 0.02},
                      GridParam{100, 0.04}, GridParam{100, 0.15},
                      GridParam{333, 0.02}, GridParam{777, 0.01}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return "len" + std::to_string(info.param.length) + "_e" +
             std::to_string(static_cast<int>(info.param.error_rate * 100));
    });

// Penalty-grid sweep of the WFA==Gotoh exactness property with both
// related and unrelated pairs.
class PenaltyGrid : public ::testing::TestWithParam<Penalties> {};

TEST_P(PenaltyGrid, WfaMatchesGotohEverywhere) {
  const Penalties penalties = GetParam();
  wfa::WfaAligner wfa_aligner(penalties);
  baselines::GotohAligner gotoh(penalties);
  Rng rng(110);
  for (int trial = 0; trial < 12; ++trial) {
    const seq::ReadPair pair =
        trial % 3 == 0
            ? pimwfa::testing::unrelated_pair(rng, 20 + rng.next_below(60),
                                              20 + rng.next_below(60))
            : pimwfa::testing::random_pair(rng, 60, rng.next_below(12));
    const auto via_wfa =
        wfa_aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto via_gotoh =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    ASSERT_EQ(via_wfa.score, via_gotoh.score)
        << "penalties=" << penalties.to_string() << " pattern=" << pair.pattern
        << " text=" << pair.text;
    align::verify_result(via_wfa, pair.pattern, pair.text, penalties);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Penalty, PenaltyGrid,
    ::testing::Values(Penalties{4, 6, 2}, Penalties{1, 0, 1},
                      Penalties{2, 4, 1}, Penalties{8, 2, 3},
                      Penalties{3, 9, 1}, Penalties{1, 1, 1},
                      Penalties{10, 1, 5}, Penalties{5, 20, 1}),
    [](const ::testing::TestParamInfo<Penalties>& info) {
      // Built via append: `const char* + std::string&&` funnels through
      // basic_string::insert, which GCC 12's -Wrestrict false-positives
      // on at -O3 (PR105651), and CI builds with -Werror.
      std::string name = "x";
      name += std::to_string(info.param.mismatch);
      name += "o";
      name += std::to_string(info.param.gap_open);
      name += "e";
      name += std::to_string(info.param.gap_extend);
      return name;
    });

}  // namespace
}  // namespace pimwfa
