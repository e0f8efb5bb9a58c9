#include <gtest/gtest.h>

#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "baselines/myers.hpp"
#include "baselines/nw.hpp"
#include "test_util.hpp"

namespace pimwfa::baselines {
namespace {

using align::AlignmentScope;
using align::Penalties;

TEST(Gotoh, IdenticalSequencesScoreZero) {
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGTACGT", "ACGTACGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.cigar.ops(), "MMMMMMMM");
}

TEST(Gotoh, SingleMismatch) {
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "AGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 4);
  EXPECT_EQ(result.cigar.ops(), "MXMM");
}

TEST(Gotoh, SingleInsertion) {
  GotohAligner aligner(Penalties::defaults());
  // text has one extra base: gap open 6 + extend 2 = 8.
  const auto result = aligner.align("ACGT", "ACGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_EQ(result.cigar.insertions(), 1u);
}

TEST(Gotoh, AffinePrefersOneLongGapOverTwoShort) {
  // Pattern vs text with 2 extra bases: one gap of 2 costs o+2e=10,
  // two gaps of 1 would cost 2(o+e)=16.
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("AAAA", "AAGGAA", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.insertions(), 2u);
  // The two insertions must be contiguous (one gap).
  const std::string& ops = result.cigar.ops();
  const usize first = ops.find('I');
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(ops[first + 1], 'I');
}

TEST(Gotoh, EmptyInputs) {
  GotohAligner aligner(Penalties::defaults());
  EXPECT_EQ(aligner.align("", "", AlignmentScope::kFull).score, 0);
  EXPECT_EQ(aligner.align("", "ACG", AlignmentScope::kFull).score, 6 + 3 * 2);
  EXPECT_EQ(aligner.align("ACG", "", AlignmentScope::kFull).score, 6 + 3 * 2);
}

TEST(Gotoh, CigarConsistentOnRandomPairs) {
  GotohAligner aligner(Penalties::defaults());
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 80, 6);
    const auto result = aligner.align(pair.pattern, pair.text,
                                      AlignmentScope::kFull);
    EXPECT_NO_THROW(align::verify_result(result, pair.pattern, pair.text,
                                         aligner.penalties()));
  }
}

TEST(Gotoh, ScoreOnlyMatchesFull) {
  GotohAligner aligner(Penalties{3, 5, 1});
  Rng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 60, 5);
    const auto full = aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto fast =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(full.score, fast.score);
    EXPECT_FALSE(fast.has_cigar);
  }
}

TEST(Gotoh, WorstCaseScoreIsUpperBound) {
  GotohAligner aligner(Penalties::defaults());
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, 40, 55);
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_LE(result.score, align::worst_case_score(aligner.penalties(), 40, 55));
  }
}

TEST(GotohBanded, MatchesFullWhenBandSufficient) {
  const Penalties penalties = Penalties::defaults();
  GotohAligner full(penalties);
  Rng rng(14);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 70, 4);
    const auto exact =
        full.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    const auto banded =
        gotoh_banded_score(pair.pattern, pair.text, penalties, 16);
    EXPECT_EQ(banded.score, exact.score);
  }
}

TEST(GotohBanded, FlagsTinyBandOnDivergentPairs) {
  const Penalties penalties = Penalties::defaults();
  Rng rng(15);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 100, 100);
  const auto banded = gotoh_banded_score(pair.pattern, pair.text, penalties, 1);
  EXPECT_TRUE(banded.band_exceeded);
}

TEST(GotohBanded, BandedScoreNeverBelowExact) {
  const Penalties penalties = Penalties::defaults();
  GotohAligner full(penalties);
  Rng rng(16);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 50, 8);
    const auto exact =
        full.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    for (usize band : {2u, 4u, 8u}) {
      const auto banded =
          gotoh_banded_score(pair.pattern, pair.text, penalties, band);
      EXPECT_GE(banded.score, exact.score);
    }
  }
}

TEST(Nw, LinearGapScores) {
  EXPECT_EQ(nw_align("ACGT", "ACGT").score, 0);
  EXPECT_EQ(nw_align("ACGT", "AGGT").score, 1);
  EXPECT_EQ(nw_align("ACGT", "ACGGT").score, 1);
}

TEST(Nw, CigarConsistent) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 40, 5);
    const auto result = nw_align(pair.pattern, pair.text);
    EXPECT_NO_THROW(result.cigar.validate(pair.pattern, pair.text));
    EXPECT_EQ(static_cast<i64>(result.cigar.edit_distance()), result.score);
  }
}

TEST(Nw, ScoreOnlyMatchesFull) {
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 45, 6);
    EXPECT_EQ(nw_score(pair.pattern, pair.text),
              nw_align(pair.pattern, pair.text).score);
  }
}

TEST(Levenshtein, KnownValues) {
  EXPECT_EQ(levenshtein("", ""), 0);
  EXPECT_EQ(levenshtein("abc", ""), 3);
  EXPECT_EQ(levenshtein("", "abc"), 3);
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2);
}

TEST(Myers, MatchesLevenshteinShortPatterns) {
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const usize len = 1 + rng.next_below(60);
    const auto pair =
        pimwfa::testing::random_pair(rng, len, rng.next_below(6));
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, MatchesLevenshteinLongPatterns) {
  Rng rng(20);
  for (int trial = 0; trial < 15; ++trial) {
    const usize len = 65 + rng.next_below(300);  // force multi-block path
    const auto pair =
        pimwfa::testing::random_pair(rng, len, rng.next_below(12));
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, ExactWordBoundary) {
  Rng rng(21);
  for (usize len : {63u, 64u, 65u, 128u, 129u}) {
    const auto pair = pimwfa::testing::random_pair(rng, len, 3);
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, EmptyInputs) {
  EXPECT_EQ(myers_edit_distance("", "ACG"), 3);
  EXPECT_EQ(myers_edit_distance("ACG", ""), 3);
  EXPECT_EQ(myers_edit_distance("", ""), 0);
}

TEST(BandedEdit, WithinThresholdIsExact) {
  Rng rng(22);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 4);
    const i64 exact = levenshtein(pair.pattern, pair.text);
    EXPECT_EQ(banded_edit_distance(pair.pattern, pair.text, 8), exact);
  }
}

TEST(BandedEdit, OverThresholdSaturates) {
  Rng rng(23);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 100, 100);
  const i64 exact = levenshtein(pair.pattern, pair.text);
  ASSERT_GT(exact, 5);
  EXPECT_EQ(banded_edit_distance(pair.pattern, pair.text, 5), 6);
}

TEST(Ukkonen, MatchesLevenshtein) {
  Rng rng(24);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair =
        pimwfa::testing::random_pair(rng, 70, rng.next_below(15));
    EXPECT_EQ(ukkonen_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Ukkonen, DivergentPairs) {
  Rng rng(25);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 64, 80);
  EXPECT_EQ(ukkonen_edit_distance(pair.pattern, pair.text),
            levenshtein(pair.pattern, pair.text));
}

}  // namespace
}  // namespace pimwfa::baselines
