// Unit tests of the SIMD layer (cpu/simd/): dispatch resolution, the
// vectorized primitives against their scalar definitions, the lane-
// batched fast-path classifier, and the cpu-simd backend's bit-identity
// with the scalar cpu backend. The broad randomized sweeps live in
// test_differential.cpp (SimdDifferential); these tests pin the exact
// boundaries - block edges, tail lanes, degenerate pairs, the fast-path
// threshold - where a vector kernel would break first.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "align/registry.hpp"
#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/scaling_model.hpp"
#include "cpu/simd/simd.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "wfa/rule.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::Penalties;
using cpu::simd::FastPathConfig;
using cpu::simd::SimdLevel;
using cpu::simd::SimdStats;

// Every level this build + host can actually run; all tests sweep it so
// the suite exercises whatever the CI matrix leg compiled in.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (cpu::simd::runtime_level() >= SimdLevel::kAvx2)
    levels.push_back(SimdLevel::kAvx2);
  return levels;
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    EXPECT_EQ(cpu::simd::parse_level(cpu::simd::level_name(level)), level);
  }
  EXPECT_THROW(cpu::simd::parse_level("avx512"), InvalidArgument);
  EXPECT_THROW(cpu::simd::parse_level(""), InvalidArgument);
  EXPECT_THROW(cpu::simd::parse_level("sse42"), InvalidArgument);
}

TEST(SimdDispatch, LevelsAreOrdered) {
  EXPECT_LE(cpu::simd::runtime_level(), cpu::simd::compiled_level());
  // Forcing any supported level resolves to exactly that level; scalar
  // is always forceable.
  for (const SimdLevel level : available_levels()) {
    EXPECT_EQ(cpu::simd::resolve_forced_level(cpu::simd::level_name(level)),
              level);
  }
  EXPECT_THROW(cpu::simd::resolve_forced_level("turbo"), InvalidArgument);
  EXPECT_THROW(cpu::simd::resolve_forced_level("sse42"), InvalidArgument);
}

TEST(SimdDispatch, LaneWidthsMatchTheDesign) {
  EXPECT_EQ(cpu::simd::lane_width(SimdLevel::kScalar), 1u);
  if (cpu::simd::compiled_level() >= SimdLevel::kAvx2) {
    EXPECT_EQ(cpu::simd::lane_width(SimdLevel::kAvx2), 8u);
  }
}

// --- primitives ---------------------------------------------------------

TEST(SimdPrimitives, MatchRunAgreesWithScalarAtEveryBoundary) {
  // A mismatch planted at every position of buffers spanning the 16- and
  // 32-byte block edges, plus the all-match case at every length.
  for (const SimdLevel level : available_levels()) {
    for (usize len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 70u}) {
      const std::string a(len, 'A');
      EXPECT_EQ(cpu::simd::match_run(level, a.data(), a.data(), len), len)
          << cpu::simd::level_name(level) << " len " << len;
      for (usize miss = 0; miss < len; ++miss) {
        std::string b = a;
        b[miss] = 'C';
        EXPECT_EQ(cpu::simd::match_run(level, a.data(), b.data(), len), miss)
            << cpu::simd::level_name(level) << " len " << len << " miss "
            << miss;
      }
    }
  }
}

TEST(SimdPrimitives, HammingCappedIsExactWithinTheCap) {
  Rng rng{2024};
  for (const SimdLevel level : available_levels()) {
    for (usize len : {1u, 16u, 33u, 100u, 257u}) {
      const std::string a = seq::random_sequence(rng, len);
      std::string b = a;
      usize planted = 0;
      for (usize i = 0; i < len; i += 7) {
        b[i] = b[i] == 'A' ? 'C' : 'A';
        ++planted;
      }
      EXPECT_EQ(cpu::simd::hamming_capped(level, a, b, len), planted);
      // Over the cap the scan may stop early, but must report > cap.
      if (planted > 1) {
        EXPECT_GT(cpu::simd::hamming_capped(level, a, b, planted - 2),
                  planted - 2);
      }
    }
  }
  EXPECT_THROW(cpu::simd::hamming_capped(SimdLevel::kScalar, "AA", "A", 5),
               InvalidArgument);
}

TEST(SimdPrimitives, MismatchPositionsMatchAByteScan) {
  Rng rng{77};
  for (const SimdLevel level : available_levels()) {
    for (usize len : {1u, 31u, 32u, 65u, 200u}) {
      const std::string a = seq::random_sequence(rng, len);
      const std::string b = seq::random_sequence(rng, len);
      std::vector<u32> expected;
      for (usize i = 0; i < len; ++i) {
        if (a[i] != b[i]) expected.push_back(static_cast<u32>(i));
      }
      std::vector<u32> got;
      cpu::simd::mismatch_positions(level, a, b, got);
      EXPECT_EQ(got, expected) << cpu::simd::level_name(level) << " len "
                               << len;
    }
  }
}

// --- align_range: fast paths and fallback, bit-identical ---------------

// Scalar reference for a batch: the plain WfaAligner.
std::vector<align::AlignmentResult> scalar_reference(
    const seq::ReadPairSet& batch, const Penalties& penalties,
    AlignmentScope scope) {
  wfa::WfaAligner aligner{penalties};
  std::vector<align::AlignmentResult> out(batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    out[i] = aligner.align(batch[i].pattern, batch[i].text, scope);
  }
  return out;
}

void expect_identical(const std::vector<align::AlignmentResult>& got,
                      const std::vector<align::AlignmentResult>& want,
                      const seq::ReadPairSet& batch, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (usize i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].score, want[i].score)
        << what << " pair " << i << "\n  pattern=" << batch[i].pattern
        << "\n  text=" << batch[i].text;
    ASSERT_EQ(got[i].has_cigar, want[i].has_cigar) << what << " pair " << i;
    ASSERT_EQ(got[i].cigar.ops(), want[i].cigar.ops())
        << what << " pair " << i << "\n  pattern=" << batch[i].pattern
        << "\n  text=" << batch[i].text;
  }
}

SimdStats run_align_range(const seq::ReadPairSet& batch,
                          const Penalties& penalties, AlignmentScope scope,
                          SimdLevel level, const FastPathConfig& config,
                          std::vector<align::AlignmentResult>& results) {
  results.assign(batch.size(), align::AlignmentResult{});
  SimdStats stats;
  wfa::WfaCounters counters;
  u64 high_water = 0;
  cpu::simd::align_range(batch, 0, batch.size(), penalties, scope, level,
                         config, results, stats, counters, high_water);
  return stats;
}

TEST(SimdAlignRange, DegeneratePairsMatchScalarExactly) {
  seq::ReadPairSet batch;
  batch.add({"", ""});                      // both empty
  batch.add({"ACGT", ""});                  // empty text
  batch.add({"", "ACGT"});                  // empty pattern
  batch.add({"ACGTACGT", "ACGTACGT"});      // identical
  batch.add({"ACGTACGT", "ACCTACGT"});      // one substitution
  batch.add({"ACGTACGT", "ACGTACG"});       // one deletion at the end
  batch.add({"ACGTACG", "ACGTACGT"});       // one insertion at the end
  batch.add({"AAAA", "TTTT"});              // all mismatch
  batch.add({"A", "T"});                    // single divergent base
  for (const SimdLevel level : available_levels()) {
    for (const AlignmentScope scope :
         {AlignmentScope::kScoreOnly, AlignmentScope::kFull}) {
      for (const Penalties& penalties :
           {Penalties::defaults(), Penalties::edit()}) {
        const auto want = scalar_reference(batch, penalties, scope);
        std::vector<align::AlignmentResult> got;
        const SimdStats stats =
            run_align_range(batch, penalties, scope, level, {}, got);
        expect_identical(got, want, batch, cpu::simd::level_name(level));
        EXPECT_EQ(stats.pairs, batch.size());
        EXPECT_EQ(stats.fast_path_pairs() + stats.wfa_pairs, stats.pairs);
      }
    }
  }
}

TEST(SimdAlignRange, OddBatchSizesExerciseTailLanes) {
  // Sizes around the 4- and 8-wide groups: remainders of every size, and
  // a mix of identical / near / divergent / length-skewed pairs so tail
  // lanes see every classification outcome.
  Rng rng{99};
  for (const usize pairs : {1u, 3u, 5u, 7u, 8u, 9u, 13u, 17u}) {
    seq::ReadPairSet batch;
    for (usize i = 0; i < pairs; ++i) {
      switch (i % 4) {
        case 0: {
          const std::string s = seq::random_sequence(rng, 100);
          batch.add({s, s});  // identical
          break;
        }
        case 1:
          batch.add(pimwfa::testing::random_pair(rng, 100, 2));
          break;
        case 2:
          batch.add(pimwfa::testing::unrelated_pair(rng, 100, 100));
          break;
        default:
          batch.add(pimwfa::testing::random_pair(rng, 96, 5));
          break;
      }
    }
    for (const SimdLevel level : available_levels()) {
      const auto want =
          scalar_reference(batch, Penalties::defaults(), AlignmentScope::kFull);
      std::vector<align::AlignmentResult> got;
      const SimdStats stats = run_align_range(
          batch, Penalties::defaults(), AlignmentScope::kFull, level, {}, got);
      expect_identical(got, want, batch, cpu::simd::level_name(level));
      const usize width = cpu::simd::lane_width(level);
      EXPECT_EQ(stats.lane_batches, pairs / width);
      EXPECT_EQ(stats.tail_pairs, pairs % width);
    }
  }
}

TEST(SimdAlignRange, HammingFastPathStopsAtTheGapFloor) {
  // x=4, o=6, e=2: h*4 < 16 admits h <= 3. Pairs at h = 3 take the fast
  // path, h = 4 must fall back to the full WFA (and a gapped optimum is
  // still possible there, so the shortcut would be wrong).
  const Penalties penalties = Penalties::defaults();
  Rng rng{5};
  const std::string base = seq::random_sequence(rng, 64);
  for (const SimdLevel level : available_levels()) {
    for (usize h = 0; h <= 5; ++h) {
      seq::ReadPairSet batch;
      std::string mutated = base;
      for (usize i = 0; i < h; ++i) {
        mutated[5 + 9 * i] = mutated[5 + 9 * i] == 'G' ? 'T' : 'G';
      }
      batch.add({base, mutated});
      const auto want =
          scalar_reference(batch, penalties, AlignmentScope::kFull);
      std::vector<align::AlignmentResult> got;
      const SimdStats stats = run_align_range(batch, penalties,
                                              AlignmentScope::kFull, level,
                                              {}, got);
      expect_identical(got, want, batch, cpu::simd::level_name(level));
      if (h <= 3) {
        EXPECT_EQ(stats.hamming_pairs, 1u) << "h=" << h;
      } else {
        EXPECT_EQ(stats.wfa_pairs, 1u) << "h=" << h;
      }
    }
  }
}

TEST(SimdAlignRange, MyersFastPathRespectsTheEditThreshold) {
  // Unit penalties, score only: within the threshold the bit-parallel
  // Myers distance is the score; past it the pair must take the full
  // WFA fallback - and both routes must agree with the scalar aligner.
  Rng rng{31337};
  FastPathConfig config;
  config.edit_threshold = 6;
  for (const SimdLevel level : available_levels()) {
    for (const usize errors : {4u, 5u, 9u, 30u}) {
      seq::ReadPairSet batch;
      batch.add(pimwfa::testing::random_pair(rng, 128, errors));
      const auto want =
          scalar_reference(batch, Penalties::edit(), AlignmentScope::kScoreOnly);
      std::vector<align::AlignmentResult> got;
      const SimdStats stats =
          run_align_range(batch, Penalties::edit(),
                          AlignmentScope::kScoreOnly, level, config, got);
      expect_identical(got, want, batch, cpu::simd::level_name(level));
      if (want[0].score > static_cast<i64>(config.edit_threshold)) {
        EXPECT_EQ(stats.fast_path_pairs(), 0u) << "errors=" << errors;
        EXPECT_EQ(stats.wfa_pairs, 1u);
      } else {
        EXPECT_EQ(stats.fast_path_pairs(), 1u) << "errors=" << errors;
      }
    }
  }
}

TEST(SimdAlignRange, SingleGapScoreOnlyFastPathIsExact) {
  // A contiguous block deleted from the middle: one gap bridges the
  // length difference, so score-only resolves without WFA and must equal
  // the Gotoh reference.
  Rng rng{808};
  const Penalties penalties = Penalties::defaults();
  baselines::GotohAligner gotoh(penalties);
  for (const SimdLevel level : available_levels()) {
    for (const usize gap : {1u, 3u, 8u}) {
      const std::string pattern = seq::random_sequence(rng, 120);
      const std::string text =
          pattern.substr(0, 40) + pattern.substr(40 + gap);
      seq::ReadPairSet batch;
      batch.add({pattern, text});
      std::vector<align::AlignmentResult> got;
      const SimdStats stats =
          run_align_range(batch, penalties, AlignmentScope::kScoreOnly,
                          level, {}, got);
      const i64 reference =
          gotoh.align(pattern, text, AlignmentScope::kScoreOnly).score;
      EXPECT_EQ(got[0].score, reference) << "gap=" << gap;
      EXPECT_EQ(stats.gap_pairs, 1u) << "gap=" << gap;
    }
  }
}

// --- WFA kernels plugged into the aligner ------------------------------

TEST(SimdWfaKernels, VectorKernelsAreBitIdenticalInsideWfa) {
  Rng rng{4242};
  seq::ReadPairSet batch;
  for (usize i = 0; i < 40; ++i) {
    batch.add(pimwfa::testing::random_pair(rng, 100 + (i % 17), i % 12));
  }
  for (usize i = 0; i < 10; ++i) {
    batch.add(pimwfa::testing::unrelated_pair(rng, 60 + i, 90 - i));
  }
  for (const SimdLevel level : available_levels()) {
    wfa::WfaAligner scalar{Penalties::defaults()};
    wfa::WfaAligner::Options options;
    options.penalties = Penalties::defaults();
    options.kernels = &cpu::simd::wfa_kernels(level);
    wfa::WfaAligner vectored{options};
    for (usize i = 0; i < batch.size(); ++i) {
      const auto want = scalar.align(batch[i].pattern, batch[i].text,
                                     AlignmentScope::kFull);
      const auto got = vectored.align(batch[i].pattern, batch[i].text,
                                      AlignmentScope::kFull);
      ASSERT_EQ(got.score, want.score)
          << cpu::simd::level_name(level) << " pair " << i;
      ASSERT_EQ(got.cigar.ops(), want.cigar.ops())
          << cpu::simd::level_name(level) << " pair " << i;
    }
  }
}

// A wavefront row over [lo, hi] between kWavefrontPad sentinel slots on
// either side, as WfaAligner allocates its rows.
class PaddedRow {
 public:
  PaddedRow(i32 lo, i32 hi, wfa::Offset fill)
      : slots_(static_cast<usize>(hi - lo + 1) + 2 * wfa::kWavefrontPad,
               wfa::kOffsetNone) {
    row_.exists = true;
    row_.lo = lo;
    row_.hi = hi;
    row_.offsets = slots_.data() + wfa::kWavefrontPad;
    for (i32 k = lo; k <= hi; ++k) row_.set(k, fill);
  }
  PaddedRow(const PaddedRow&) = delete;
  PaddedRow& operator=(const PaddedRow&) = delete;

  wfa::Wavefront& row() { return row_; }
  bool pads_intact() const {
    const usize pad = wfa::kWavefrontPad;
    for (usize i = 0; i < pad; ++i) {
      if (slots_[i] != wfa::kOffsetNone ||
          slots_[slots_.size() - 1 - i] != wfa::kOffsetNone) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<wfa::Offset> slots_;
  wfa::Wavefront row_;
};

// Synthetic rows no alignment has to produce: each source null or live
// over its own range, holding kOffsetNone and offsets that land exactly on
// the trims (an insertion at h == tlen, a deletion at v == plen, and one
// past each), in problems small enough that the row range is clipped.
TEST(SimdWfaKernels, RowKernelsMatchTheRuleCellByCell) {
  Rng rng{0x5eed5};
  constexpr wfa::Offset kUnwritten = 1 << 29;
  usize clipped = 0;
  usize vector_rows = 0;
  for (usize trial = 0; trial < 600; ++trial) {
    const i64 max_length = trial % 4 == 0 ? 40 : 12;
    const i32 pl = static_cast<i32>(rng.next_range(1, max_length));
    const i32 tl = static_cast<i32>(rng.next_range(1, max_length));
    const auto offset_at = [&](i32 k) -> wfa::Offset {
      // A valid cell on diagonal k holds h in [0, tl] with v = h - k in
      // [0, pl]. Besides kOffsetNone, draw that box's edges: the trims.
      const i32 h_min = std::max(0, k);
      const i32 h_max = std::min(tl, k + pl);
      const wfa::Offset menu[] = {
          wfa::kOffsetNone, tl, tl - 1, k + pl, k + pl - 1,
          static_cast<wfa::Offset>(rng.next_range(h_min, h_max))};
      const wfa::Offset off = menu[rng.next_below(std::size(menu))];
      return off >= h_min && off <= h_max ? off : wfa::kOffsetNone;
    };
    std::optional<PaddedRow> sources[4];  // M[s-x], M[s-o-e], I[s-e], D[s-e]
    wfa::rule::RowRange range;
    for (std::optional<PaddedRow>& source : sources) {
      if (rng.next_bool(0.25)) continue;
      const i32 lo = static_cast<i32>(rng.next_range(-pl, tl));
      const i32 hi = static_cast<i32>(rng.next_range(lo, tl));
      source.emplace(lo, hi, wfa::kOffsetNone);
      for (i32 k = lo; k <= hi; ++k) source->row().set(k, offset_at(k));
      range.cover(lo, hi);
    }
    const wfa::rule::RowRange wide = range;
    range.clip(pl, tl);
    if (range.empty()) continue;
    if (range.lo != wide.lo || range.hi != wide.hi) ++clipped;
    if (range.width() >= 8) ++vector_rows;

    wfa::ComputeRowArgs args;
    const auto live = [](std::optional<PaddedRow>& row) {
      return row ? &row->row() : nullptr;
    };
    args.m_sub = live(sources[0]);
    args.m_gap = live(sources[1]);
    args.i_ext = live(sources[2]);
    args.d_ext = live(sources[3]);
    args.lo = range.lo;
    args.hi = range.hi;
    args.pl = pl;
    args.tl = tl;
    const auto at = [](const wfa::Wavefront* w, i32 k) {
      return w != nullptr ? w->at(k) : wfa::kOffsetNone;
    };
    const auto run = [&](wfa::ComputeRowFn compute_row, const char* label) {
      PaddedRow m(range.lo, range.hi, kUnwritten);
      PaddedRow i(range.lo, range.hi, kUnwritten);
      PaddedRow d(range.lo, range.hi, kUnwritten);
      args.out_m = &m.row();
      args.out_i = &i.row();
      args.out_d = &d.row();
      compute_row(args);
      for (i32 k = range.lo; k <= range.hi; ++k) {
        const wfa::rule::Cell want = wfa::rule::cell(
            at(args.m_sub, k), at(args.m_gap, k - 1), at(args.i_ext, k - 1),
            at(args.m_gap, k + 1), at(args.d_ext, k + 1), k, pl, tl);
        ASSERT_EQ(m.row().at(k), want.m) << label << " trial " << trial
                                         << " M at k=" << k;
        ASSERT_EQ(i.row().at(k), want.i) << label << " trial " << trial
                                         << " I at k=" << k;
        ASSERT_EQ(d.row().at(k), want.d) << label << " trial " << trial
                                         << " D at k=" << k;
      }
      EXPECT_TRUE(m.pads_intact() && i.pads_intact() && d.pads_intact())
          << label << " trial " << trial << " wrote past its row";
    };
    run(&wfa::compute_row_scalar, "compute_row_scalar");
    for (const SimdLevel level : available_levels()) {
      run(cpu::simd::wfa_kernels(level).compute_row,
          cpu::simd::level_name(level));
    }
  }
  // The sweep reached the clip and rows wide enough for vector blocks.
  EXPECT_GT(clipped, 100u);
  EXPECT_GT(vector_rows, 100u);
}

// --- backend integration ------------------------------------------------

TEST(SimdBackend, RegistryEntryMatchesCpuBitForBit) {
  seq::GeneratorConfig generator;
  generator.pairs = 257;  // odd on purpose: tail lanes in every worker
  generator.read_length = 100;
  generator.error_rate = 0.02;
  generator.seed = 7;
  const seq::ReadPairSet batch = seq::generate_dataset(generator);

  align::BatchOptions options;
  options.cpu_threads = 2;
  const auto cpu_backend = align::backend_registry().create("cpu", options);
  const auto simd_backend =
      align::backend_registry().create("cpu-simd", options);
  EXPECT_EQ(simd_backend->name(), "cpu-simd");

  const auto want = cpu_backend->run(batch, AlignmentScope::kFull);
  const auto got = simd_backend->run(batch, AlignmentScope::kFull);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (usize i = 0; i < got.results.size(); ++i) {
    ASSERT_EQ(got.results[i].score, want.results[i].score) << "pair " << i;
    ASSERT_EQ(got.results[i].cigar.ops(), want.results[i].cigar.ops())
        << "pair " << i;
    ASSERT_NO_THROW(align::verify_result(got.results[i], batch[i].pattern,
                                         batch[i].text, options.penalties));
  }
  EXPECT_EQ(got.backend, "cpu-simd");
  EXPECT_GT(got.timings.modeled_seconds, 0.0);
}

TEST(SimdBackend, NativeBatchReportsFastPathStats) {
  seq::GeneratorConfig generator;
  generator.pairs = 200;
  generator.read_length = 100;
  generator.error_rate = 0.02;
  generator.seed = 11;
  const seq::ReadPairSet batch = seq::generate_dataset(generator);

  cpu::CpuBatchOptions options;
  options.simd = true;
  const cpu::CpuBatchAligner aligner(options);
  const auto result = aligner.align_batch(batch, AlignmentScope::kFull);
  EXPECT_EQ(result.simd.pairs, batch.size());
  EXPECT_EQ(result.simd.fast_path_pairs() + result.simd.wfa_pairs,
            result.simd.pairs);
  // E=2% plants exactly 2 edits per 100bp pair; the all-substitution
  // draws (h=2 < gap floor) must be taking the Hamming fast path.
  EXPECT_GT(result.simd.hamming_pairs, 0u);
  // The fallback aligner's counters flow through unchanged.
  EXPECT_EQ(result.work.alignments, result.simd.wfa_pairs);
}

TEST(SimdBackend, CostModelReportsSpeedupAndTrafficReduction) {
  seq::GeneratorConfig generator;
  generator.pairs = 128;
  generator.read_length = 100;
  generator.error_rate = 0.02;
  generator.seed = 3;
  const seq::ReadPairSet batch = seq::generate_dataset(generator);

  for (const SimdLevel level : available_levels()) {
    const cpu::simd::SpeedupModel model = cpu::simd::model_sample(
        batch, Penalties::defaults(), AlignmentScope::kFull, {}, level);
    EXPECT_GE(model.fast_path_fraction, 0.0);
    EXPECT_LE(model.fast_path_fraction, 1.0);
    EXPECT_GT(model.scalar_units_per_pair, 0.0);
    EXPECT_GT(model.simd_units_per_pair, 0.0);
    // Any fast-path hit keeps pairs out of the wavefront arena, so the
    // modeled traffic must sit at or below the scalar fixed footprint.
    EXPECT_LE(model.traffic_bytes_per_pair,
              cpu::TrafficModel{}.per_pair_fixed_bytes);
    if (level == SimdLevel::kScalar) {
      // At scalar width the fast path trades wavefront cells for a full
      // byte scan, which the model prices at roughly parity; anything
      // far below 1.0 would mean the classifier is misrouting pairs.
      EXPECT_GE(model.speedup, 0.9);
      EXPECT_LE(model.speedup, 1.5);
    } else {
      EXPECT_GT(model.speedup, 1.5) << cpu::simd::level_name(level);
    }
  }
}

// The traffic floor has one formula: pricing align_range's counters
// directly must give model_sample's figure for the same sample, bit for
// bit, whichever fast paths fired.
TEST(SimdBackend, TrafficHelperMatchesModelSampleExactly) {
  const seq::ReadPairSet batch = seq::fig1_dataset(128, 0.02, 19);
  for (const SimdLevel level : available_levels()) {
    for (const AlignmentScope scope :
         {AlignmentScope::kScoreOnly, AlignmentScope::kFull}) {
      std::vector<align::AlignmentResult> results;
      const SimdStats stats = run_align_range(batch, Penalties::defaults(),
                                              scope, level, {}, results);
      EXPECT_GT(stats.hamming_pairs, 0u);
      if (scope == AlignmentScope::kScoreOnly) {
        EXPECT_GT(stats.gap_pairs, 0u);
      }
      const cpu::simd::SpeedupModel model = cpu::simd::model_sample(
          batch, Penalties::defaults(), scope, {}, level);
      EXPECT_EQ(cpu::simd::traffic_bytes_per_pair(stats),
                model.traffic_bytes_per_pair)
          << cpu::simd::level_name(level);
    }
  }
  EXPECT_THROW(cpu::simd::traffic_bytes_per_pair(SimdStats{}), InvalidArgument);
}

// With the calibrated per-pair override, run() divides the override by
// the modeled speedup and prices traffic over the batch: for a batch of
// at most 128 pairs that is exactly the sampled model's projection.
TEST(SimdBackend, OverrideProjectionMatchesTheSampledModel) {
  const seq::ReadPairSet batch = seq::fig1_dataset(100, 0.02, 23);
  align::BatchOptions options;
  options.cpu_threads = 2;
  options.cpu_simd = true;
  options.cpu_per_pair_seconds = 5e-6;
  cpu::CpuBatchAligner aligner(options);
  const align::BatchResult result = aligner.run(batch, AlignmentScope::kFull);

  const SimdLevel level = aligner.simd_level();
  const cpu::simd::SpeedupModel model = cpu::simd::model_sample(
      batch, options.penalties, AlignmentScope::kFull, {}, level);
  const double n = static_cast<double>(batch.size());
  const double t1 = options.cpu_per_pair_seconds * n / model.speedup;
  const double expected = cpu::project_batch_seconds_traffic(
      cpu::CpuSystemModel{}, t1, model.traffic_bytes_per_pair * n);
  EXPECT_EQ(result.timings.modeled_seconds, expected);
  EXPECT_EQ(result.timings.cpu_modeled_seconds, expected);
}

// wall_seconds is the whole run() call; cpu_wall_seconds is the worker
// loop alone. The override path still runs model_sample after the loop,
// so the call must take strictly longer than the loop.
TEST(SimdBackend, WallTimeCoversTheWholeRun) {
  const seq::ReadPairSet batch = seq::fig1_dataset(200, 0.02, 29);
  align::BatchOptions options;
  options.cpu_per_pair_seconds = 5e-6;
  const auto backend = align::backend_registry().create("cpu-simd", options);
  const align::BatchResult result = backend->run(batch, AlignmentScope::kFull);
  EXPECT_GT(result.timings.cpu_wall_seconds, 0.0);
  EXPECT_GT(result.timings.wall_seconds, result.timings.cpu_wall_seconds);
}

}  // namespace
}  // namespace pimwfa
