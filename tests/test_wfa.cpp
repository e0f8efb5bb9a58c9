#include <gtest/gtest.h>

#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "cpu/simd/simd.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::wfa {
namespace {

using align::AlignmentScope;
using align::Penalties;

TEST(Wfa, IdenticalSequences) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGTACGTAC", "ACGTACGTAC",
                                    AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.cigar.ops(), std::string(10, 'M'));
}

TEST(Wfa, SingleMismatch) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "AGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 4);
  EXPECT_EQ(result.cigar.ops(), "MXMM");
}

TEST(Wfa, SingleInsertion) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "ACGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_NO_THROW(align::verify_result(result, "ACGT", "ACGGT",
                                       aligner.penalties()));
}

TEST(Wfa, SingleDeletion) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGGT", "ACGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_EQ(result.cigar.deletions(), 1u);
}

TEST(Wfa, EmptyInputs) {
  WfaAligner aligner(Penalties::defaults());
  EXPECT_EQ(aligner.align("", "", AlignmentScope::kFull).score, 0);
  const auto ins = aligner.align("", "ACG", AlignmentScope::kFull);
  EXPECT_EQ(ins.score, 6 + 3 * 2);
  EXPECT_EQ(ins.cigar.ops(), "III");
  const auto del = aligner.align("ACG", "", AlignmentScope::kFull);
  EXPECT_EQ(del.score, 6 + 3 * 2);
  EXPECT_EQ(del.cigar.ops(), "DDD");
}

TEST(Wfa, EndingInGap) {
  // Optimal alignment ends with an insertion run.
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("AC", "ACGG", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.ops(), "MMII");
}

TEST(Wfa, StartingWithGap) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("GGAC", "AC", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.ops(), "DDMM");
}

TEST(Wfa, ScoreOnlyMatchesFull) {
  WfaAligner aligner(Penalties::defaults());
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 5);
    const auto full = aligner.align(pair.pattern, pair.text,
                                    AlignmentScope::kFull);
    const auto fast =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(full.score, fast.score);
  }
}

// The fundamental exactness property: WFA and Gotoh agree on every input.
struct SweepParam {
  usize length;
  usize errors;
  Penalties penalties;
};

class WfaVsGotoh : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WfaVsGotoh, ScoresAgreeAndCigarsConsistent) {
  const SweepParam param = GetParam();
  WfaAligner wfa(param.penalties);
  baselines::GotohAligner gotoh(param.penalties);
  Rng rng(1000 + param.length * 7 + param.errors);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair =
        pimwfa::testing::random_pair(rng, param.length, param.errors);
    const auto wfa_result =
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto gotoh_result =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(wfa_result.score, gotoh_result.score)
        << "pattern=" << pair.pattern << " text=" << pair.text
        << " penalties=" << param.penalties.to_string();
    EXPECT_NO_THROW(align::verify_result(wfa_result, pair.pattern, pair.text,
                                         param.penalties));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WfaVsGotoh,
    ::testing::Values(
        SweepParam{10, 1, Penalties::defaults()},
        SweepParam{10, 4, Penalties::defaults()},
        SweepParam{50, 2, Penalties::defaults()},
        SweepParam{50, 10, Penalties::defaults()},
        SweepParam{100, 2, Penalties::defaults()},   // Fig.1 E=2%
        SweepParam{100, 4, Penalties::defaults()},   // Fig.1 E=4%
        SweepParam{100, 20, Penalties::defaults()},
        SweepParam{200, 30, Penalties::defaults()},
        SweepParam{100, 4, Penalties{1, 0, 1}},      // edit-distance penalties
        SweepParam{100, 4, Penalties{2, 3, 1}},
        SweepParam{100, 4, Penalties{6, 2, 5}},
        SweepParam{100, 4, Penalties{1, 12, 1}},     // expensive open
        SweepParam{64, 8, Penalties{5, 1, 1}},
        SweepParam{33, 33, Penalties::defaults()}),  // saturated errors
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "len" + std::to_string(info.param.length) + "_err" +
             std::to_string(info.param.errors) + "_x" +
             std::to_string(info.param.penalties.mismatch) + "_o" +
             std::to_string(info.param.penalties.gap_open) + "_e" +
             std::to_string(info.param.penalties.gap_extend);
    });

TEST(Wfa, UnrelatedSequencesStillExact) {
  const Penalties penalties = Penalties::defaults();
  WfaAligner wfa(penalties);
  baselines::GotohAligner gotoh(penalties);
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(
        rng, 30 + rng.next_below(40), 30 + rng.next_below(40));
    const auto wfa_result =
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto gotoh_result =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(wfa_result.score, gotoh_result.score);
    EXPECT_NO_THROW(align::verify_result(wfa_result, pair.pattern, pair.text,
                                         penalties));
  }
}

TEST(Wfa, LengthAsymmetry) {
  const Penalties penalties = Penalties::defaults();
  WfaAligner wfa(penalties);
  baselines::GotohAligner gotoh(penalties);
  Rng rng(33);
  for (const auto& [plen, tlen] : std::vector<std::pair<usize, usize>>{
           {10, 40}, {40, 10}, {1, 100}, {100, 1}, {5, 5}}) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, plen, tlen);
    EXPECT_EQ(
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull).score,
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score);
  }
}

TEST(Wfa, MaxScoreCapThrows) {
  WfaAligner::Options options;
  options.max_score = 3;  // below any mismatch cost
  WfaAligner aligner(options);
  EXPECT_THROW(aligner.align("AAAA", "TTTT", AlignmentScope::kScoreOnly),
               Error);
}

TEST(Wfa, CountersAccumulate) {
  WfaAligner aligner(Penalties::defaults());
  Rng rng(34);
  const auto pair = pimwfa::testing::random_pair(rng, 100, 4);
  aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
  const WfaCounters& counters = aligner.counters();
  EXPECT_EQ(counters.alignments, 1u);
  EXPECT_GT(counters.extend_matches, 0u);
  EXPECT_GT(counters.computed_cells, 0u);
  EXPECT_GT(counters.backtrace_ops, 0u);
  aligner.reset_counters();
  EXPECT_EQ(aligner.counters().alignments, 0u);
}

TEST(Wfa, CountersScaleWithErrorRate) {
  // WFA work grows with the alignment score: E=4% must compute more cells
  // than E=2% on average (the paper's core scaling property).
  WfaAligner aligner(Penalties::defaults());
  Rng rng(35);
  u64 cells_low = 0;
  u64 cells_high = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto low = pimwfa::testing::random_pair(rng, 100, 2);
    aligner.reset_counters();
    aligner.align(low.pattern, low.text, AlignmentScope::kScoreOnly);
    cells_low += aligner.counters().computed_cells;
    const auto high = pimwfa::testing::random_pair(rng, 100, 4);
    aligner.reset_counters();
    aligner.align(high.pattern, high.text, AlignmentScope::kScoreOnly);
    cells_high += aligner.counters().computed_cells;
  }
  EXPECT_GT(cells_high, cells_low);
}

// Pins every work counter and the arena's high-water mark on a seeded
// batch. allocated_bytes feeds the CPU model's traffic, and the cell,
// match and probe counts feed the SIMD cost model, so a change that moves
// one moves a modeled number. The vector kernels must count exactly the
// work of the scalar ones.
TEST(Wfa, CountersArePinnedOnASeededBatch) {
  using MemoryMode = WfaAligner::MemoryMode;
  struct Pinned {
    const char* name;
    MemoryMode mode;
    AlignmentScope scope;
    WfaCounters counters;
    usize high_water;
  };
  const seq::ReadPairSet batch = seq::fig1_dataset(64, 0.04, 0xC0);
  // Fields in WfaCounters order: alignments, computed_cells,
  // extend_matches, extend_probes, score_steps, wavefront_sets,
  // backtrace_ops, max_score, allocated_bytes, peak_wavefront_bytes.
  // clang-format off
  const Pinned pinned[] = {
      {"kHigh full", MemoryMode::kHigh, AlignmentScope::kFull,
       {64, 29826, 9655, 5813, 1560, 716, 6480, 32, 119560, 3064}, 6192},
      {"kLow score-only", MemoryMode::kLow, AlignmentScope::kScoreOnly,
       {64, 29826, 9655, 5813, 1560, 716, 0, 32, 119560, 1620}, 0},
      {"kUltralow full", MemoryMode::kUltralow, AlignmentScope::kFull,
       {64, 86640, 38356, 12113, 8373, 3420, 6479, 32, 349156, 5104}, 6192},
  };
  // clang-format on
  const WfaKernels* levels[] = {
      &scalar_kernels(), &cpu::simd::wfa_kernels(cpu::simd::active_level())};
  for (const WfaKernels* kernels : levels) {
    for (const Pinned& want : pinned) {
      SCOPED_TRACE(std::string(want.name) + ", " +
                   (kernels == levels[0] ? "scalar" : "active") + " kernels");
      WfaAligner::Options options;
      options.memory_mode = want.mode;
      // A 2 KiB base-case budget makes kUltralow cut each 100 bp pair at
      // breakpoints instead of solving it in one retained pass.
      options.ultralow_base_wavefront_bytes = 2048;
      options.kernels = kernels;
      WfaAligner aligner(options);
      for (usize i = 0; i < batch.size(); ++i) {
        aligner.align(batch[i].pattern, batch[i].text, want.scope);
      }
      const WfaCounters& got = aligner.counters();
      EXPECT_EQ(got.alignments, want.counters.alignments);
      EXPECT_EQ(got.computed_cells, want.counters.computed_cells);
      EXPECT_EQ(got.extend_matches, want.counters.extend_matches);
      EXPECT_EQ(got.extend_probes, want.counters.extend_probes);
      EXPECT_EQ(got.score_steps, want.counters.score_steps);
      EXPECT_EQ(got.wavefront_sets, want.counters.wavefront_sets);
      EXPECT_EQ(got.backtrace_ops, want.counters.backtrace_ops);
      EXPECT_EQ(got.max_score, want.counters.max_score);
      EXPECT_EQ(got.allocated_bytes, want.counters.allocated_bytes);
      EXPECT_EQ(got.peak_wavefront_bytes, want.counters.peak_wavefront_bytes);
      EXPECT_EQ(aligner.allocator().high_water(), want.high_water);
    }
  }
}

TEST(Wfa, DeterministicCigars) {
  WfaAligner a(Penalties::defaults());
  WfaAligner b(Penalties::defaults());
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 70, 5);
    const auto ra = a.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto rb = b.align(pair.pattern, pair.text, AlignmentScope::kFull);
    EXPECT_EQ(ra.cigar, rb.cigar);
  }
}

TEST(WfaLowMemory, MatchesHighMemoryScores) {
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const auto pair = pimwfa::testing::random_pair(
        rng, 20 + rng.next_below(150), rng.next_below(20));
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score)
        << "pattern=" << pair.pattern << " text=" << pair.text;
  }
}

TEST(WfaLowMemory, MatchesOnUnrelatedPairs) {
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(44);
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(
        rng, 30 + rng.next_below(60), 30 + rng.next_below(60));
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score);
  }
}

TEST(WfaLowMemory, UsesBoundedArenaMemory) {
  // Divergent pairs drive the score high: the high-memory mode's arena
  // grows ~O(s^2) while the low-memory ring stays out of the arena
  // entirely.
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(45);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 200, 200);
  low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
  high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
  EXPECT_LT(low.allocator().high_water(), high.allocator().high_water() / 4);
}

TEST(WfaLowMemory, FullScopeStillBacktraces) {
  // kLow applies only to score-only requests; full alignments keep the
  // history and return a valid CIGAR.
  WfaAligner::Options options;
  options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner aligner(options);
  Rng rng(46);
  const auto pair = pimwfa::testing::random_pair(rng, 80, 5);
  const auto result =
      aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
  EXPECT_TRUE(result.has_cigar);
  EXPECT_NO_THROW(align::verify_result(result, pair.pattern, pair.text,
                                       options.penalties));
}

TEST(WfaLowMemory, DifferentPenaltiesAgree) {
  Rng rng(47);
  for (const Penalties penalties :
       {Penalties{4, 6, 2}, Penalties{1, 0, 1}, Penalties{7, 3, 4}}) {
    WfaAligner::Options low_options;
    low_options.penalties = penalties;
    low_options.memory_mode = WfaAligner::MemoryMode::kLow;
    WfaAligner low(low_options);
    WfaAligner high(penalties);
    for (int trial = 0; trial < 10; ++trial) {
      const auto pair = pimwfa::testing::random_pair(rng, 64, 7);
      EXPECT_EQ(
          low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
          high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
              .score);
    }
  }
}

TEST(WfaLowMemory, RingReuseAcrossShrinkingAndGrowingAlignments) {
  // One kLow aligner reused across alignments whose score (and therefore
  // ring-slot width demand) grows and shrinks: stale ring state from a
  // larger previous alignment must never leak into a smaller one.
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(48);
  const std::vector<std::pair<usize, usize>> schedule = {
      {10, 0}, {200, 20}, {10, 1}, {150, 0}, {5, 2}, {200, 10}, {1, 0}};
  for (const auto& [length, errors] : schedule) {
    const auto pair = pimwfa::testing::random_pair(rng, length, errors);
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score)
        << "length=" << length << " errors=" << errors;
  }
}

TEST(WfaLowMemory, GridSweepMatchesHighMemory) {
  // Dense length x error grid, one aligner pair per penalty set, aligners
  // reused across the whole grid (the production usage pattern).
  Rng rng(49);
  for (const Penalties penalties :
       {Penalties::defaults(), Penalties{2, 12, 1}, Penalties{6, 1, 1}}) {
    WfaAligner::Options low_options;
    low_options.penalties = penalties;
    low_options.memory_mode = WfaAligner::MemoryMode::kLow;
    WfaAligner low(low_options);
    WfaAligner high(penalties);
    for (usize length : {8u, 32u, 100u, 180u}) {
      for (usize errors : {usize{0}, usize{1}, length / 20, length / 8}) {
        const auto pair = pimwfa::testing::random_pair(rng, length, errors);
        EXPECT_EQ(low.align(pair.pattern, pair.text,
                            AlignmentScope::kScoreOnly).score,
                  high.align(pair.pattern, pair.text,
                             AlignmentScope::kScoreOnly).score)
            << penalties.to_string() << " length=" << length
            << " errors=" << errors;
      }
    }
  }
}

TEST(WfaMaxScore, NonExceedingPairsMatchUncapped) {
  // A cap at or above the true score must not change the result, in either
  // memory mode and either scope.
  Rng rng(50);
  WfaAligner uncapped(Penalties::defaults());
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 4);
    const auto expected =
        uncapped.align(pair.pattern, pair.text, AlignmentScope::kFull);
    for (const auto mode :
         {WfaAligner::MemoryMode::kHigh, WfaAligner::MemoryMode::kLow}) {
      WfaAligner::Options options;
      options.max_score = expected.score;  // exact boundary: must succeed
      options.memory_mode = mode;
      WfaAligner capped(options);
      EXPECT_EQ(capped.align(pair.pattern, pair.text,
                             AlignmentScope::kScoreOnly).score,
                expected.score);
      const auto full =
          capped.align(pair.pattern, pair.text, AlignmentScope::kFull);
      EXPECT_EQ(full.score, expected.score);
      EXPECT_NO_THROW(align::verify_result(full, pair.pattern, pair.text,
                                           options.penalties));
    }
  }
}

TEST(WfaMaxScore, ExceedingPairsThrowInBothMemoryModes) {
  Rng rng(51);
  WfaAligner scorer(Penalties::defaults());
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 6);
    const i64 score =
        scorer.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
            .score;
    if (score == 0) continue;  // cannot set a cap below a zero score
    for (const auto mode :
         {WfaAligner::MemoryMode::kHigh, WfaAligner::MemoryMode::kLow}) {
      WfaAligner::Options options;
      options.max_score = score - 1;
      options.memory_mode = mode;
      WfaAligner capped(options);
      EXPECT_THROW(
          capped.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly),
          Error);
      EXPECT_THROW(
          capped.align(pair.pattern, pair.text, AlignmentScope::kFull),
          Error);
    }
  }
}

TEST(WfaMaxScore, AlignerStaysUsableAfterCapThrow) {
  // A thresholded rejection must not poison internal state: the next
  // alignment on the same aligner is computed correctly.
  WfaAligner::Options options;
  options.max_score = 6;
  WfaAligner capped(options);
  EXPECT_THROW(capped.align("AAAAAAAA", "TTTTTTTT", AlignmentScope::kFull),
               Error);
  // A single substitution scores exactly x=4, under the cap of 6.
  const auto after = capped.align("ACGTACGTACGT", "ACGAACGTACGT",
                                  AlignmentScope::kFull);
  EXPECT_EQ(after.score, 4);
  EXPECT_NO_THROW(align::verify_result(after, "ACGTACGTACGT", "ACGAACGTACGT",
                                       options.penalties));
}

TEST(SlabAllocator, AlignmentGuarantee) {
  SlabAllocator allocator(1024);
  for (usize size : {1u, 3u, 8u, 13u, 100u, 2000u}) {
    void* p = allocator.allocate(size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kAllocAlign, 0u);
  }
}

TEST(SlabAllocator, ResetRecyclesMemory) {
  SlabAllocator allocator(256);
  void* first = allocator.allocate(64);
  allocator.reset();
  void* again = allocator.allocate(64);
  EXPECT_EQ(first, again);
  EXPECT_EQ(allocator.bytes_in_use(), 64u);
}

TEST(SlabAllocator, SpillsToNewSlabs) {
  SlabAllocator allocator(128);
  allocator.allocate(100);
  allocator.allocate(100);  // does not fit the first slab
  EXPECT_GE(allocator.slab_count(), 2u);
}

TEST(SlabAllocator, OversizedAllocationGetsDedicatedSlab) {
  SlabAllocator allocator(128);
  void* p = allocator.allocate(10000);
  EXPECT_NE(p, nullptr);
  EXPECT_GE(allocator.high_water(), 10000u);
}

TEST(SlabAllocator, HighWaterPersistsAcrossReset) {
  SlabAllocator allocator(1024);
  allocator.allocate(512);
  allocator.reset();
  allocator.allocate(8);
  EXPECT_GE(allocator.high_water(), 512u);
  EXPECT_EQ(allocator.bytes_in_use(), 8u);
}

}  // namespace
}  // namespace pimwfa::wfa
