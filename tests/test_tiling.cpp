// Long-pair tiling: host-side planner correctness and the tiled PIM
// execution path (segments across tasklet rows/DPUs, host-side stitching).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/hybrid.hpp"
#include "align/verify.hpp"
#include "common/thread_pool.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/simd/simd.hpp"
#include "pim/host.hpp"
#include "pim/layout.hpp"
#include "pim/tiling.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {
namespace {

using align::AlignmentScope;
using align::Penalties;
using Component = wfa::WfaAligner::Component;

PimOptions tiny_options(usize dpus, usize tasklets) {
  PimOptions options;
  options.system = upmem::SystemConfig::tiny(dpus);
  options.nr_tasklets = tasklets;
  return options;
}

// The tiled result must be indistinguishable from a host kHigh alignment.
void expect_matches_host(const seq::ReadPairSet& batch,
                         const PimBatchResult& result,
                         const Penalties& penalties, bool full) {
  ASSERT_EQ(result.results.size(), batch.size());
  wfa::WfaAligner host(penalties);
  for (usize i = 0; i < batch.size(); ++i) {
    const auto expected = host.align(
        batch[i].pattern, batch[i].text,
        full ? AlignmentScope::kFull : AlignmentScope::kScoreOnly);
    EXPECT_EQ(result.results[i].score, expected.score) << "pair " << i;
    if (full) {
      EXPECT_EQ(result.results[i].cigar, expected.cigar) << "pair " << i;
      EXPECT_NO_THROW(align::verify_result(result.results[i],
                                           batch[i].pattern, batch[i].text,
                                           penalties));
    }
  }
}

// Segments must tile the pair contiguously, chain their seam components,
// respect the size bound, and their span scores must sum to the optimum.
void expect_valid_plan(const std::vector<TileSegment>& segments,
                       const seq::ReadPair& pair, usize max_segment_bases,
                       const Penalties& penalties) {
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().v0, 0u);
  EXPECT_EQ(segments.front().h0, 0u);
  EXPECT_EQ(segments.front().begin, Component::kM);
  EXPECT_EQ(segments.back().v1, pair.pattern.size());
  EXPECT_EQ(segments.back().h1, pair.text.size());
  EXPECT_EQ(segments.back().end, Component::kM);
  i64 total = 0;
  for (usize s = 0; s < segments.size(); ++s) {
    const TileSegment& seg = segments[s];
    EXPECT_LE(seg.pattern_length() + seg.text_length(), max_segment_bases);
    if (s > 0) {
      EXPECT_EQ(seg.v0, segments[s - 1].v1);
      EXPECT_EQ(seg.h0, segments[s - 1].h1);
      EXPECT_EQ(seg.begin, segments[s - 1].end);
    }
    total += seg.span_score;
  }
  wfa::WfaAligner host(penalties);
  EXPECT_EQ(total,
            host.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
                .score);
}

// The segments of `pairs` of `batch`: trace(), then cut() under `budget`.
std::vector<TileSegment> plan(TilingPlanner planner, u64 budget,
                              const seq::ReadPairSet& batch,
                              const std::vector<usize>& pairs,
                              ThreadPool* pool = nullptr) {
  planner.trace(batch, pairs, pool);
  return planner.cut(budget);
}

// The serial planner's segments for one pair.
std::vector<TileSegment> plan_one(const TilingConfig& config, u64 budget,
                                  const seq::ReadPair& pair) {
  seq::ReadPairSet batch;
  batch.add(pair);
  return plan(TilingPlanner(config), budget, batch, {0});
}

// Plans `pairs` of `batch` with a null pool and pools of 1, 2 and 4
// workers, at every kernel level this host supports. Each plan must equal
// the reference - a null pool with scalar kernels - field for field;
// returns the reference.
std::vector<TileSegment> expect_same_plan_everywhere(
    const TilingConfig& config, u64 budget, const seq::ReadPairSet& batch,
    const std::vector<usize>& pairs) {
  const std::vector<TileSegment> reference =
      plan(TilingPlanner(config), budget, batch, pairs);
  ThreadPool one(1), two(2), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                           &four}) {
    const usize workers = pool == nullptr ? 0 : pool->size();
    for (int level = 0;
         level <= static_cast<int>(cpu::simd::runtime_level()); ++level) {
      const auto simd = static_cast<cpu::simd::SimdLevel>(level);
      TilingPlanner planner(config, cpu::simd::wfa_kernels(simd));
      planner.trace(batch, pairs, pool);
      EXPECT_EQ(planner.cut(budget), reference)
          << "workers=" << workers
          << " kernels=" << cpu::simd::level_name(simd);
    }
  }
  return reference;
}

// The ends (pattern, text) of the closed nodes of a pair's kUltralow
// recursion at the default base budget, left to right: the boundaries no
// segment may cross.
std::vector<std::pair<usize, usize>> node_ends(const seq::ReadPair& pair,
                                               const Penalties& penalties) {
  wfa::WfaAligner::Options options;
  options.penalties = penalties;
  options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
  wfa::WfaAligner aligner(options);
  std::vector<std::pair<usize, usize>> ends;
  const auto recurse = [&](const auto& self,
                           const wfa::WfaAligner::Subproblem& sub) -> void {
    if (sub.v0 != sub.v1 && sub.h0 != sub.h1) {
      const wfa::WfaAligner::UltralowSplit split =
          aligner.ultralow_split(pair.pattern, pair.text, sub);
      if (!split.base_case) {
        for (const auto& half : split.halves) self(self, half);
        return;
      }
    }
    ends.emplace_back(sub.v1, sub.h1);
  };
  wfa::WfaAligner::Subproblem root;
  root.v1 = pair.pattern.size();
  root.h1 = pair.text.size();
  root.score_cap = 1 << 20;
  recurse(recurse, root);
  return ends;
}

// Each input below exercises a cut rule of the planner (see tiling.hpp);
// every plan must be the same whatever the pool width and kernel level.

TEST(TilingPlanner, SegmentsCoverPairAndScoresAdd) {
  // One base case, cut evenly along its path by the size bound.
  Rng rng(101);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 1000, 25));
  TilingConfig config;
  const u64 budget = 1u << 20;
  config.max_segment_bases = 256;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {0});
  EXPECT_GT(segments.size(), 4u);
  expect_valid_plan(segments, batch[0], 256, Penalties::defaults());
}

TEST(TilingPlanner, PerfectMatchCutsIntoScoreZeroSegments) {
  Rng rng(102);
  const std::string sequence = seq::random_sequence(rng, 800);
  seq::ReadPairSet batch;
  batch.add({sequence, sequence});
  TilingConfig config;
  const u64 budget = 1u << 20;
  config.max_segment_bases = 128;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {0});
  expect_valid_plan(segments, batch[0], 128, Penalties::defaults());
  for (const TileSegment& seg : segments) EXPECT_EQ(seg.span_score, 0);
}

TEST(TilingPlanner, ArenaBudgetAloneForcesSplits) {
  Rng rng(103);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 600, 40));
  for (const Penalties& penalties :
       {Penalties::defaults(), Penalties{2, 12, 1}}) {
    TilingConfig config;
    config.penalties = penalties;
    // Generous size bound; the (tiny) arena budget drives the splits.
    const u64 budget = 16u << 10;
    config.max_segment_bases = 1u << 20;
    const std::vector<TileSegment> segments =
        expect_same_plan_everywhere(config, budget, batch, {0});
    EXPECT_GT(segments.size(), 1u);
    expect_valid_plan(segments, batch[0], 1u << 20, penalties);
  }
}

TEST(TilingPlanner, CutsInsideGapRunsGiveInsertionAndDeletionSeams) {
  // A 300-base deletion in the first half and a 300-base insertion in the
  // second, each longer than a segment: cuts must land inside both runs,
  // giving kD and kI seams.
  Rng rng(1);
  seq::ReadPair pair;
  pair.pattern = seq::random_sequence(rng, 1600);
  pair.text = pair.pattern.substr(0, 300) + pair.pattern.substr(600, 500) +
              seq::random_sequence(rng, 300) + pair.pattern.substr(1100);
  seq::ReadPairSet batch;
  batch.add(pair);
  TilingConfig config;
  const u64 budget = 1u << 20;
  config.max_segment_bases = 128;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {0});
  expect_valid_plan(segments, pair, 128, Penalties::defaults());
  usize insertion_seams = 0;
  usize deletion_seams = 0;
  for (const TileSegment& seg : segments) {
    insertion_seams += seg.begin == Component::kI ? 1 : 0;
    deletion_seams += seg.begin == Component::kD ? 1 : 0;
  }
  EXPECT_GE(insertion_seams, 1u);
  EXPECT_GE(deletion_seams, 1u);
}

TEST(TilingPlanner, NoSegmentCrossesABaseCaseBoundary) {
  // Scores this high split the kUltralow recursion (4 MiB base budget)
  // into several base cases; every base case boundary must be a cut, and
  // the cuts inside a base case follow the size bound only.
  Rng rng(105);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 2500, 300));
  TilingConfig config;
  const u64 budget = 64u << 20;
  config.max_segment_bases = 1000;
  config.slots = 4;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {0});
  expect_valid_plan(segments, batch[0], 1000, Penalties::defaults());
  const std::vector<std::pair<usize, usize>> ends =
      node_ends(batch[0], Penalties::defaults());
  ASSERT_GT(ends.size(), 2u);
  for (const auto& [v, h] : ends) {
    usize at_end = 0;
    for (const TileSegment& seg : segments) {
      at_end += seg.v1 == v && seg.h1 == h ? 1 : 0;
    }
    EXPECT_EQ(at_end, 1u) << "node ending at " << v << "x" << h;
  }
}

TEST(TilingPlanner, FittingPathStaysOneSegment) {
  // The pair fits both budgets whole, so no slot count splits it.
  Rng rng(106);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 700, 20));
  TilingConfig config;
  const u64 budget = 1u << 20;
  config.max_segment_bases = 2000;
  config.slots = 8;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {0});
  ASSERT_EQ(segments.size(), 1u);
  expect_valid_plan(segments, batch[0], 2000, Penalties::defaults());
}

TEST(TilingPlanner, SegmentCountIsAMultipleOfTheSlots) {
  // One base case whose fewest fitting segments (about 10 of at most 200
  // bases) is no multiple of 3 or 8: the count rounds up to one, and the
  // cuts spread evenly, so no segment is much shorter than the others.
  Rng rng(107);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 1000, 20));
  for (const usize slots : {3u, 8u}) {
    TilingConfig config;
    const u64 budget = 1u << 20;
    config.max_segment_bases = 200;
    config.slots = slots;
    const std::vector<TileSegment> segments =
        expect_same_plan_everywhere(config, budget, batch, {0});
    EXPECT_EQ(segments.size() % slots, 0u) << "slots=" << slots;
    EXPECT_GE(segments.size(), 10u) << "slots=" << slots;
    expect_valid_plan(segments, batch[0], 200, Penalties::defaults());
    const usize mean =
        (batch[0].pattern.size() + batch[0].text.size()) / segments.size();
    for (const TileSegment& seg : segments) {
      EXPECT_LE(seg.pattern_length() + seg.text_length(), mean + 2)
          << "slots=" << slots;
      EXPECT_GE(seg.pattern_length() + seg.text_length() + 2, mean)
          << "slots=" << slots;
    }
  }
}

TEST(TilingPlanner, CuttingAgainMatchesAFreshPlan) {
  // One trace, cut under shrinking arena budgets, as align_batch replans.
  Rng rng(108);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 900, 60));
  batch.add(pimwfa::testing::random_pair(rng, 1200, 30));
  TilingConfig config;
  config.max_segment_bases = 1u << 20;
  config.slots = 2;
  TilingPlanner traced(config);
  traced.trace(batch, {0, 1});
  usize previous = 0;
  for (const u64 budget : {1u << 20, 64u << 10, 16u << 10}) {
    const std::vector<TileSegment> segments = traced.cut(budget);
    EXPECT_EQ(segments, plan(TilingPlanner(config), budget, batch, {0, 1}))
        << "budget=" << budget;
    EXPECT_GE(segments.size(), previous) << "budget=" << budget;
    previous = segments.size();
  }
  EXPECT_GT(previous, 2u);
}

TEST(TilingPlanner, MultiPairPlanIsPairMajorAndMatchesPerPairPlans) {
  // Pairs 1 and 3 are planned; 0 and 2 are not asked for.
  Rng rng(104);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 900, 20));
  batch.add(pimwfa::testing::random_pair(rng, 1500, 40));
  batch.add(pimwfa::testing::random_pair(rng, 100, 2));
  batch.add(pimwfa::testing::random_pair(rng, 700, 30));
  TilingConfig config;
  const u64 budget = 1u << 20;
  config.max_segment_bases = 200;
  const std::vector<TileSegment> segments =
      expect_same_plan_everywhere(config, budget, batch, {1, 3});
  std::vector<TileSegment> per_pair = plan_one(config, budget, batch[1]);
  for (TileSegment& seg : per_pair) seg.pair = 1;
  std::vector<TileSegment> last = plan_one(config, budget, batch[3]);
  for (TileSegment& seg : last) seg.pair = 3;
  per_pair.insert(per_pair.end(), last.begin(), last.end());
  EXPECT_EQ(segments, per_pair);
}

TEST(PimTiling, TiledFullAlignmentMatchesHost) {
  Rng rng(7);
  seq::ReadPairSet batch;
  // Long pairs interleaved with short ones: tiled and untiled records
  // share the batch.
  batch.add(pimwfa::testing::random_pair(rng, 1400, 30));
  batch.add(pimwfa::testing::random_pair(rng, 90, 3));
  batch.add(pimwfa::testing::random_pair(rng, 1600, 10));
  batch.add(pimwfa::testing::random_pair(rng, 120, 0));
  PimOptions options = tiny_options(2, 4);
  options.tile_max_segment_bases = 512;
  PimBatchAligner aligner(options);
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_EQ(result.timings.tiled_pairs, 2u);
  EXPECT_GT(result.timings.tile_segments, batch.size());
  EXPECT_EQ(result.timings.pairs, batch.size());
  EXPECT_GT(result.timings.tile_plan_seconds, 0.0);
  // A batch that tiles nothing plans nothing.
  seq::ReadPairSet short_pairs;
  short_pairs.add(batch[1]);
  EXPECT_EQ(aligner.align_batch(short_pairs, AlignmentScope::kFull)
                .timings.tile_plan_seconds,
            0.0);
}

TEST(PimTiling, TiledCigarsEqualCpuUltralow) {
  // Tiled results equal the cpu backend in kUltralow at the default base
  // budget, score and CIGAR text, at every segment bound and pool width:
  // the planner cuts that very alignment. Pairs of 0.5-5 kb at E=1-15%;
  // cutting at fresh breakpoints instead pins a different co-optimal
  // CIGAR for about one pair in five.
  seq::ReadPairSet batch;
  const std::pair<double, std::vector<usize>> cells[] = {
      {0.01, {500, 1000, 2000, 5000}},
      {0.05, {500, 1000, 2000, 5000}},
      {0.10, {500, 1000, 2000}},
      {0.15, {500, 1000}},
  };
  for (const auto& [rate, lengths] : cells) {
    for (const usize length : lengths) {
      seq::GeneratorConfig gen;
      gen.pairs = 2;
      gen.read_length = length;
      gen.error_rate = rate;
      gen.seed = 0x71DE + length + static_cast<u64>(rate * 100);
      const seq::ReadPairSet cell = seq::generate_dataset(gen);
      for (usize i = 0; i < cell.size(); ++i) batch.add(cell[i]);
    }
  }
  cpu::CpuBatchOptions reference_options;
  reference_options.memory_mode = align::MemoryMode::kUltralow;
  const std::vector<align::AlignmentResult> expected =
      cpu::CpuBatchAligner(reference_options)
          .align_batch(batch, AlignmentScope::kFull)
          .results;
  ThreadPool one(1), two(2), four(4);
  for (const usize bound : {64u, 200u, 1000u}) {
    PimOptions options = tiny_options(2, 4);
    options.tile_max_segment_bases = bound;
    PimBatchAligner aligner(options);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                             &four}) {
      const usize workers = pool == nullptr ? 0 : pool->size();
      const PimBatchResult result =
          aligner.align_batch(batch, AlignmentScope::kFull, pool);
      ASSERT_EQ(result.results.size(), batch.size());
      // At 1000 bases some 500-base pairs fit whole and run untiled.
      EXPECT_GT(result.timings.tiled_pairs, batch.size() / 2);
      for (usize i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(result.results[i].score, expected[i].score)
            << "bound=" << bound << " workers=" << workers << " pair " << i;
        EXPECT_EQ(result.results[i].cigar.ops(), expected[i].cigar.ops())
            << "bound=" << bound << " workers=" << workers << " pair " << i;
      }
    }
  }
}

TEST(PimTiling, TiledScoreOnlyMatchesHost) {
  Rng rng(8);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 1200, 40));
  batch.add(pimwfa::testing::unrelated_pair(rng, 700, 760));
  PimOptions options = tiny_options(3, 2);
  options.tile_max_segment_bases = 400;
  PimBatchAligner aligner(options);
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kScoreOnly);
  expect_matches_host(batch, result, Penalties::defaults(), false);
  EXPECT_EQ(result.timings.tiled_pairs, 2u);
}

TEST(PimTiling, WramShareScreensLongPairsAutomatically) {
  // No explicit segment bound: a 500x500 pair (1000 bases) exceeds the
  // ~298-base WRAM share of a 24-tasklet DPU and must tile on its own.
  Rng rng(9);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 500, 12));
  PimBatchAligner aligner(tiny_options(1, 24));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_EQ(result.timings.tiled_pairs, 1u);
  EXPECT_GT(result.timings.tile_segments, 1u);
}

TEST(PimTiling, PipelinedTiledBatchesRunAsOneChunk) {
  Rng rng(33);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 1400, 30));
  batch.add(pimwfa::testing::random_pair(rng, 90, 3));
  // One DPU with two tasklets: the segment records span enough tasklet
  // rows that a forced 3-chunk schedule would be honored if tiled batches
  // pipelined.
  PimOptions options = tiny_options(1, 2);
  options.tile_max_segment_bases = 512;
  PimBatchAligner plain(options);
  const PimBatchResult expected =
      plain.align_batch(batch, AlignmentScope::kFull);
  ASSERT_EQ(expected.timings.tiled_pairs, 1u);
  ASSERT_GE(expected.timings.tile_segments, 6u);
  for (const usize chunks : {0u, 3u}) {
    PimOptions pipelined = options;
    pipelined.pipeline = true;
    pipelined.pipeline_chunks = chunks;
    PimBatchAligner aligner(pipelined);
    const PimBatchResult result =
        aligner.align_batch(batch, AlignmentScope::kFull);
    EXPECT_EQ(result.results, expected.results) << "chunks=" << chunks;
    pimwfa::testing::expect_same_timings(result.timings, expected.timings);
  }
}

TEST(PimTiling, DisabledTilingNamesTheOffendingPair) {
  Rng rng(10);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 100, 2));
  batch.add(pimwfa::testing::random_pair(rng, 900, 5));
  PimOptions options = tiny_options(1, 4);
  options.tile_max_segment_bases = 300;
  options.tile_long_pairs = false;
  PimBatchAligner aligner(options);
  try {
    aligner.align_batch(batch, AlignmentScope::kFull);
    FAIL() << "expected Error for the untileable pair";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pair 1"), std::string::npos) << message;
    EXPECT_NE(message.find("tile_long_pairs"), std::string::npos) << message;
  }
}

TEST(PimTiling, PlanningErrorNamesFirstFailingPairAtEveryPoolWidth) {
  // Both long pairs exceed the score cap. Pair 2 is the shorter one and
  // fails first in time on a wide pool; the error must still name pair 1,
  // the first failing pair in frontier order.
  Rng rng(14);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 100, 1));
  batch.add(pimwfa::testing::random_pair(rng, 3000, 60));
  batch.add(pimwfa::testing::random_pair(rng, 600, 30));
  PimOptions capped = tiny_options(2, 4);
  capped.tile_max_segment_bases = 256;
  capped.max_score = 40;
  PimOptions uncapped = capped;
  uncapped.max_score = 0;
  ThreadPool one(1), two(2), four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                           &four}) {
    const usize workers = pool == nullptr ? 0 : pool->size();
    PimBatchAligner aligner(capped);
    try {
      aligner.align_batch(batch, AlignmentScope::kFull, pool);
      ADD_FAILURE() << "expected Error over the score cap, workers="
                    << workers;
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("cannot tile pair 1:"), std::string::npos)
          << "workers=" << workers << ": " << message;
    }
    // The pool stays usable.
    const PimBatchResult result = PimBatchAligner(uncapped).align_batch(
        batch, AlignmentScope::kFull, pool);
    expect_matches_host(batch, result, Penalties::defaults(), true);
  }
}

TEST(PimTiling, ConstructorRejectsSegmentBoundBelowPlannerMinimum) {
  PimOptions options = tiny_options(1, 4);
  for (const usize bases : {1u, 8u, 15u}) {
    options.tile_max_segment_bases = bases;
    try {
      PimBatchAligner aligner(options);
      ADD_FAILURE() << "expected InvalidArgument for " << bases << " bases";
    } catch (const InvalidArgument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("tile_max_segment_bases"), std::string::npos)
          << message;
    }
  }
  options.tile_max_segment_bases = TilingPlanner::kMinSegmentBases;
  EXPECT_NO_THROW(PimBatchAligner aligner(options));
}

TEST(PimTiling, HybridSplitsAndAlignsLongPairBatch) {
  // Long pairs must survive the hybrid calibrator (its virtual-prefix
  // PIM probe cannot serve a tiled batch) and both execution shares.
  Rng rng(12);
  seq::ReadPairSet batch;
  for (usize i = 0; i < 12; ++i) {
    batch.add(pimwfa::testing::random_pair(rng, i % 3 == 0 ? 1200 : 150, 8));
  }
  align::BatchOptions options;
  options.pim_dpus = 2;
  options.pim_tasklets = 4;
  options.cpu_threads = 2;
  align::HybridBatchAligner hybrid(options);
  const align::BatchResult result =
      hybrid.run(seq::ReadPairSpan(batch), AlignmentScope::kFull);
  ASSERT_EQ(result.results.size(), batch.size());
  wfa::WfaAligner host(options.penalties);
  for (usize i = 0; i < batch.size(); ++i) {
    const auto expected =
        host.align(batch[i].pattern, batch[i].text, AlignmentScope::kFull);
    EXPECT_EQ(result.results[i].score, expected.score) << "pair " << i;
    EXPECT_EQ(result.results[i].cigar, expected.cigar) << "pair " << i;
  }
}

TEST(PimTiling, VirtualBatchesAreRejected) {
  Rng rng(11);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 900, 5));
  PimOptions options = tiny_options(1, 4);
  options.tile_max_segment_bases = 300;
  options.virtual_total_pairs = 1;
  PimBatchAligner aligner(options);
  EXPECT_THROW(aligner.align_batch(batch, AlignmentScope::kFull),
               InvalidArgument);
}

// Satellite: an unplannable layout must say which budget broke and point
// at tiling instead of a generic "does not fit".
TEST(BatchLayoutTiling, OversizedPairErrorSuggestsTiling) {
  BatchLayout::Params params;
  params.nr_pairs = 1;
  params.max_pattern = 600'000;
  params.max_text = 600'000;
  try {
    BatchLayout::plan(params, 1ull << 20);
    FAIL() << "expected Error for an oversized pair record";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tiling"), std::string::npos) << message;
    EXPECT_NE(message.find("600000"), std::string::npos) << message;
  }
}

TEST(BatchLayoutTiling, OverfullBatchErrorSuggestsShrinkingOrTiling) {
  BatchLayout::Params params;
  params.nr_pairs = 1'000'000;
  params.max_pattern = 100;
  params.max_text = 100;
  try {
    BatchLayout::plan(params, 1ull << 20);
    FAIL() << "expected Error for an overfull batch";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tile long pairs"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace pimwfa::pim
