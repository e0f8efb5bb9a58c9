// Cross-aligner differential-testing harness.
//
// Every aligner in the repository claims to compute the same mathematical
// object: the optimal global gap-affine penalty (or its unit-cost
// specialization, the Levenshtein distance). This suite generates randomized
// read pairs swept over length x error-rate x penalty configurations and
// asserts *zero score divergence* between
//
//   - WfaAligner in kHigh, kLow and adaptive-heuristic modes,
//   - GotohAligner (the trusted O(n^2) DP reference),
//   - nw_align/nw_score (linear-gap DP, cross-checked via o=0 penalty sets),
//   - myers/ukkonen/EditWfaAligner (unit-cost family), and
//   - PimBatchAligner, with and without packed_sequences (which must stay
//     bit-identical, CIGARs included).
//
// A divergence here means a real bug in at least one implementation; the
// failure message carries the offending pair so it can be replayed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/registry.hpp"
#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "baselines/myers.hpp"
#include "baselines/nw.hpp"
#include "common/thread_pool.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/simd/simd.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "upmem/config.hpp"
#include "wfa/wfa_aligner.hpp"
#include "wfa/wfa_edit.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::Penalties;
using pimwfa::testing::DiffConfig;

// Pairs per sweep cell. The acceptance bar for the harness: every
// configuration cross-checks at least this many randomized pairs.
constexpr usize kPairsPerConfig = 200;

wfa::WfaAligner::Options wfa_options(const Penalties& penalties,
                                     wfa::WfaAligner::MemoryMode mode) {
  wfa::WfaAligner::Options options;
  options.penalties = penalties;
  options.memory_mode = mode;
  return options;
}

wfa::WfaAligner::Options adapt_options(const Penalties& penalties) {
  wfa::WfaAligner::Options options;
  options.penalties = penalties;
  options.heuristic.enabled = true;
  // Generous bounds keep the heuristic exact on the bounded-error-rate
  // workloads of this sweep (the reduction only drops diagonals that are
  // hopelessly behind); the adaptive-specific inexactness tests live in
  // test_wfa.cpp.
  options.heuristic.min_wavefront_length = 32;
  options.heuristic.max_distance_diff = 128;
  return options;
}

std::string pair_diag(const DiffConfig& config, usize index,
                      const seq::ReadPair& pair) {
  return config.name() + " pair " + std::to_string(index) + "\n  pattern=" +
         pair.pattern + "\n  text=" + pair.text;
}

// --- CPU-side gap-affine family -----------------------------------------

class AffineDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(AffineDifferential, WfaModesMatchGotohOnEveryPair) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);
  ASSERT_EQ(batch.size(), kPairsPerConfig);

  baselines::GotohAligner gotoh(config.penalties);
  wfa::WfaAligner wfa_high(
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kHigh));
  wfa::WfaAligner wfa_low(
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kLow));
  wfa::WfaAligner wfa_adapt(adapt_options(config.penalties));

  for (usize i = 0; i < batch.size(); ++i) {
    const seq::ReadPair& pair = batch[i];
    const i64 reference =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score;

    // kHigh runs the full scope so the CIGAR is verified against the
    // reported score and the pair on every alignment.
    const auto high = wfa_high.align(pair.pattern, pair.text,
                                     AlignmentScope::kFull);
    ASSERT_EQ(high.score, reference) << "wfa-high vs gotoh, "
                                     << pair_diag(config, i, pair);
    ASSERT_NO_THROW(align::verify_result(high, pair.pattern, pair.text,
                                         config.penalties))
        << pair_diag(config, i, pair);

    const auto low = wfa_low.align(pair.pattern, pair.text,
                                   AlignmentScope::kScoreOnly);
    ASSERT_EQ(low.score, reference) << "wfa-low vs gotoh, "
                                    << pair_diag(config, i, pair);

    const auto adapt = wfa_adapt.align(pair.pattern, pair.text,
                                       AlignmentScope::kScoreOnly);
    ASSERT_EQ(adapt.score, reference) << "wfa-adapt vs gotoh, "
                                      << pair_diag(config, i, pair);

    // Gotoh's own full-scope path must agree with its score-only path.
    const auto gotoh_full = gotoh.align(pair.pattern, pair.text,
                                        AlignmentScope::kFull);
    ASSERT_EQ(gotoh_full.score, reference) << pair_diag(config, i, pair);
    ASSERT_NO_THROW(align::verify_result(gotoh_full, pair.pattern, pair.text,
                                         config.penalties))
        << pair_diag(config, i, pair);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AffineDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{16, 64, 100, 150},
        /*error_rates=*/{0.0, 0.02, 0.05, 0.10},
        /*penalty_sets=*/
        {Penalties::defaults(), Penalties::edit(), Penalties{2, 12, 1},
         Penalties{6, 1, 1}})),
    [](const auto& info) { return info.param.name(); });

// --- linear-gap cross-check (NW == Gotoh/WFA at o=0) --------------------

class LinearGapDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(LinearGapDifferential, NwMatchesAffineWithZeroGapOpen) {
  const DiffConfig config = GetParam();
  ASSERT_EQ(config.penalties.gap_open, 0) << "sweep must use o=0 cells";
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  const baselines::LinearPenalties linear{config.penalties.mismatch,
                                          config.penalties.gap_extend};
  wfa::WfaAligner wfa_high(
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kHigh));
  baselines::GotohAligner gotoh(config.penalties);

  for (usize i = 0; i < batch.size(); ++i) {
    const seq::ReadPair& pair = batch[i];
    const i64 nw = baselines::nw_score(pair.pattern, pair.text, linear);
    const i64 wfa_score = wfa_high.align(pair.pattern, pair.text,
                                         AlignmentScope::kScoreOnly).score;
    const i64 gotoh_score = gotoh.align(pair.pattern, pair.text,
                                        AlignmentScope::kScoreOnly).score;
    ASSERT_EQ(nw, wfa_score) << "nw vs wfa, " << pair_diag(config, i, pair);
    ASSERT_EQ(nw, gotoh_score) << "nw vs gotoh, "
                               << pair_diag(config, i, pair);
    // Full-scope NW must agree with its own score-only path and produce a
    // consistent CIGAR under the degenerate affine model.
    const auto nw_full = baselines::nw_align(pair.pattern, pair.text, linear);
    ASSERT_EQ(nw_full.score, nw) << pair_diag(config, i, pair);
    ASSERT_NO_THROW(align::verify_result(nw_full, pair.pattern, pair.text,
                                         config.penalties))
        << pair_diag(config, i, pair);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearGapDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{32, 100},
        /*error_rates=*/{0.02, 0.10},
        /*penalty_sets=*/{Penalties{1, 0, 1}, Penalties{3, 0, 2}})),
    [](const auto& info) { return info.param.name(); });

// --- unit-cost (edit distance) family -----------------------------------

class EditDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(EditDifferential, AllEditDistanceImplementationsAgree) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  wfa::WfaAligner wfa_edit_affine(
      wfa_options(Penalties::edit(), wfa::WfaAligner::MemoryMode::kHigh));
  wfa::EditWfaAligner edit_wfa;

  for (usize i = 0; i < batch.size(); ++i) {
    const seq::ReadPair& pair = batch[i];
    const i64 reference = baselines::levenshtein(pair.pattern, pair.text);
    const i64 myers = baselines::myers_edit_distance(pair.pattern, pair.text);
    const i64 ukkonen =
        baselines::ukkonen_edit_distance(pair.pattern, pair.text);
    const i64 wfa_affine =
        wfa_edit_affine.align(pair.pattern, pair.text,
                              AlignmentScope::kScoreOnly).score;
    const i64 wfa_unit = edit_wfa.align(pair.pattern, pair.text,
                                        AlignmentScope::kScoreOnly).score;
    ASSERT_EQ(myers, reference) << "myers, " << pair_diag(config, i, pair);
    ASSERT_EQ(ukkonen, reference) << "ukkonen, " << pair_diag(config, i, pair);
    ASSERT_EQ(wfa_affine, reference)
        << "wfa(x=1,o=0,e=1), " << pair_diag(config, i, pair);
    ASSERT_EQ(wfa_unit, reference) << "wfa-edit, "
                                   << pair_diag(config, i, pair);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EditDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        // 80 crosses the one-word -> multi-word boundary of the
        // bit-parallel Myers implementation.
        /*lengths=*/{16, 80, 150},
        /*error_rates=*/{0.0, 0.05, 0.15},
        /*penalty_sets=*/{Penalties::edit()})),
    [](const auto& info) { return info.param.name(); });

// --- PIM batch path ------------------------------------------------------

class PimDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(PimDifferential, BatchPathMatchesHostAndPackedIsBitIdentical) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  pim::PimOptions plain_options;
  plain_options.system = upmem::SystemConfig::tiny(4);
  plain_options.nr_tasklets = 8;
  plain_options.penalties = config.penalties;
  pim::PimOptions packed_options = plain_options;
  packed_options.packed_sequences = true;

  pim::PimBatchAligner plain(plain_options);
  pim::PimBatchAligner packed(packed_options);
  const pim::PimBatchResult plain_result =
      plain.align_batch(batch, AlignmentScope::kFull);
  const pim::PimBatchResult packed_result =
      packed.align_batch(batch, AlignmentScope::kFull);

  ASSERT_EQ(plain_result.results.size(), batch.size());
  ASSERT_EQ(packed_result.results.size(), batch.size());

  wfa::WfaAligner host(
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kHigh));
  baselines::GotohAligner gotoh(config.penalties);
  for (usize i = 0; i < batch.size(); ++i) {
    const seq::ReadPair& pair = batch[i];
    const auto expected =
        host.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const i64 reference =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score;
    ASSERT_EQ(expected.score, reference) << pair_diag(config, i, pair);
    ASSERT_EQ(plain_result.results[i].score, reference)
        << "pim vs gotoh, " << pair_diag(config, i, pair);
    ASSERT_EQ(plain_result.results[i], expected)
        << "pim vs host wfa, " << pair_diag(config, i, pair);
    // packed_sequences is a pure transfer-format optimization: results must
    // be bit-identical to the unpacked path, CIGARs included.
    ASSERT_EQ(packed_result.results[i], plain_result.results[i])
        << "packed vs plain, " << pair_diag(config, i, pair);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PimDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{64, 100},
        /*error_rates=*/{0.02, 0.10},
        /*penalty_sets=*/{Penalties::defaults(), Penalties{2, 12, 1}})),
    [](const auto& info) { return info.param.name(); });

// --- hybrid CPU+PIM dispatcher -------------------------------------------
//
// The hybrid backend splits a batch between the CPU baseline and the PIM
// system and merges the results in input order. Both sides run the exact
// same WFA, so the merged batch must be bit-identical (scores + CIGARs)
// to the cpu and pim backends alone - for the calibrated split, for
// forced splits (including the degenerate all-CPU / all-PIM ones), and
// composed with the packed transfer format.

class HybridDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(HybridDifferential, HybridIsBitIdenticalToCpuAndPim) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  align::BatchOptions options;
  options.penalties = config.penalties;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_threads = 2;

  align::BackendRegistry& registry = align::backend_registry();
  const align::BatchResult cpu_result =
      registry.create("cpu", options)->run(batch, AlignmentScope::kFull);
  const align::BatchResult pim_result =
      registry.create("pim", options)->run(batch, AlignmentScope::kFull);
  ASSERT_EQ(cpu_result.results.size(), batch.size());
  ASSERT_EQ(pim_result.results.size(), batch.size());

  // cpu vs pim first: any divergence below is then attributable.
  for (usize i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(cpu_result.results[i], pim_result.results[i])
        << "cpu vs pim, " << pair_diag(config, i, batch[i]);
  }

  // Calibrated split plus forced splits covering both degenerate ends and
  // an uneven interior point; every one must merge to the same batch.
  for (const double fraction : {-1.0, 0.0, 0.3, 1.0}) {
    align::BatchOptions hybrid_options = options;
    hybrid_options.hybrid_cpu_fraction = fraction;
    const align::BatchResult hybrid_result =
        registry.create("hybrid", hybrid_options)
            ->run(batch, AlignmentScope::kFull);
    ASSERT_EQ(hybrid_result.results.size(), batch.size())
        << config.name() << " fraction=" << fraction;
    for (usize i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(hybrid_result.results[i], cpu_result.results[i])
          << "hybrid(f=" << fraction << ") vs cpu, "
          << pair_diag(config, i, batch[i]);
    }
    const align::BatchTimings& t = hybrid_result.timings;
    ASSERT_EQ(t.cpu_pairs + t.pim_pairs, batch.size());
  }

  // Packed transfers compose with the hybrid split bit-identically.
  align::BatchOptions packed_options = options;
  packed_options.pim_packed = true;
  packed_options.hybrid_cpu_fraction = 0.5;
  const align::BatchResult packed_result =
      registry.create("hybrid", packed_options)
          ->run(batch, AlignmentScope::kFull);
  ASSERT_EQ(packed_result.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(packed_result.results[i], pim_result.results[i])
        << "hybrid+packed vs pim, " << pair_diag(config, i, batch[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{64, 100},
        /*error_rates=*/{0.02, 0.10},
        /*penalty_sets=*/{Penalties::defaults(), Penalties{2, 12, 1}})),
    [](const auto& info) { return info.param.name(); });

// --- pipelined execution -------------------------------------------------
//
// Pipelined mode is a pure scheduling change: the same pair records land at
// the same MRAM addresses and the same kernel aligns them, chunk by chunk.
// Scores and CIGARs must therefore be bit-identical to the synchronous
// path for every chunk count, and the overlapped makespan must never
// exceed the synchronous Total (the overlap win has to cover the
// per-launch overheads, or the planner should have said so).

class PipelinedDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(PipelinedDifferential, PipelinedMatchesSynchronousAndIsNoSlower) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  // Paper-shaped run: the full 2560-DPU system with the batch's transfers
  // modeled at scale (virtual batch), two DPUs simulated functionally.
  // This is the transfer-bound regime pipelining targets - Fig. 1's Total
  // is dominated by scatter/gather there - so every >= 2-chunk schedule
  // must beat the synchronous Total outright. (On tiny kernel-bound
  // batches, per-launch setup and tasklet resynchronization make forced
  // chunking a modeled loss; the planner declines those, which
  // test_pipeline covers.)
  constexpr usize kSimulatedDpus = 2;
  pim::PimOptions sync_options;
  sync_options.system = upmem::SystemConfig::paper();
  sync_options.nr_tasklets = 24;
  sync_options.penalties = config.penalties;
  sync_options.simulate_dpus = kSimulatedDpus;
  sync_options.virtual_total_pairs =
      sync_options.system.nr_dpus() * (kPairsPerConfig / kSimulatedDpus);

  pim::PimBatchAligner sync_aligner(sync_options);
  const pim::PimBatchResult sync_result =
      sync_aligner.align_batch(batch, AlignmentScope::kFull);
  ASSERT_EQ(sync_result.results.size(), batch.size());
  const double sync_total = sync_result.timings.total_seconds();

  ThreadPool pool(3);  // one worker per in-flight pipeline stage
  for (const usize chunks : {2u, 3u, 4u}) {
    pim::PimOptions pipe_options = sync_options;
    pipe_options.pipeline = true;
    pipe_options.pipeline_chunks = chunks;
    pim::PimBatchAligner pipe_aligner(pipe_options);
    const pim::PimBatchResult pipe_result =
        pipe_aligner.align_batch(batch, AlignmentScope::kFull, &pool);

    ASSERT_EQ(pipe_result.results.size(), batch.size());
    const pim::PimTimings& t = pipe_result.timings;
    ASSERT_EQ(t.chunks, chunks);
    for (usize i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(pipe_result.results[i], sync_result.results[i])
          << "pipelined(" << chunks << " chunks) vs sync, "
          << pair_diag(config, i, batch[i]);
    }

    // The makespan law: strictly faster than the synchronous Total and
    // internally consistent.
    EXPECT_LT(t.total_seconds(), sync_total)
        << config.name() << " chunks=" << chunks;
    EXPECT_LE(t.total_seconds(), t.additive_seconds());
    EXPECT_GT(t.fill_seconds, 0.0);
    EXPECT_GT(t.drain_seconds, 0.0);
    EXPECT_GT(t.overlap_saved_seconds, 0.0);
    EXPECT_NEAR(t.steady_state_seconds,
                t.total_seconds() - t.fill_seconds - t.drain_seconds,
                1e-12);
  }

  // The planner's own choice must beat the synchronous path too.
  {
    pim::PimOptions auto_options = sync_options;
    auto_options.pipeline = true;
    pim::PimBatchAligner auto_aligner(auto_options);
    const pim::PimBatchResult auto_result =
        auto_aligner.align_batch(batch, AlignmentScope::kFull, &pool);
    ASSERT_GT(auto_result.timings.chunks, 1u) << config.name();
    EXPECT_LT(auto_result.timings.total_seconds(), sync_total)
        << config.name() << " auto chunks=" << auto_result.timings.chunks;
    ASSERT_EQ(auto_result.results.size(), batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(auto_result.results[i], sync_result.results[i])
          << "auto-pipelined vs sync, " << pair_diag(config, i, batch[i]);
    }
  }

  // Packed transfers compose with pipelining; both stay bit-identical.
  pim::PimOptions packed_pipe = sync_options;
  packed_pipe.packed_sequences = true;
  packed_pipe.pipeline = true;
  packed_pipe.pipeline_chunks = 3;
  pim::PimOptions packed_sync = sync_options;
  packed_sync.packed_sequences = true;
  pim::PimBatchAligner packed_aligner(packed_pipe);
  pim::PimBatchAligner packed_sync_aligner(packed_sync);
  const pim::PimBatchResult packed_result =
      packed_aligner.align_batch(batch, AlignmentScope::kFull, &pool);
  const pim::PimBatchResult packed_sync_result =
      packed_sync_aligner.align_batch(batch, AlignmentScope::kFull);
  ASSERT_EQ(packed_result.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(packed_result.results[i], sync_result.results[i])
        << "packed+pipelined vs sync, " << pair_diag(config, i, batch[i]);
  }
  EXPECT_LT(packed_result.timings.total_seconds(),
            packed_sync_result.timings.total_seconds())
      << config.name();
}

// Error rates stay in the transfer-bound regime where the overlap win is
// physical: at E >= ~10% the kernel dwarfs the transfers for this sweep's
// per-DPU loads, and chunking's launch overheads outweigh what little
// transfer time there is to hide (bit-identity at such configurations is
// still covered by the forced-chunk loop above running at E=0 and 2%).
INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinedDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{64, 100},
        /*error_rates=*/{0.0, 0.02},
        /*penalty_sets=*/{Penalties::defaults(), Penalties{2, 12, 1}})),
    [](const auto& info) { return info.param.name(); });

// --- sharded zero-copy submission ----------------------------------------
//
// BatchEngine::run_sharded carves one batch into O(1) sub-views and keeps
// them in flight concurrently; the merged results must be bit-identical
// (scores + CIGARs) and in input order vs. the unsharded owning path, on
// cpu, hybrid and pim under each of its BatchOptions variants, with zero
// bases copied by the carve.

class ShardedViewDifferential : public ::testing::TestWithParam<DiffConfig> {
};

TEST_P(ShardedViewDifferential, ShardedViewsMatchTheUnshardedOwningPath) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  align::BatchOptions options;
  options.penalties = config.penalties;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_threads = 2;
  // Deterministic CPU calibration: the hybrid's shard splits then depend
  // only on shape, and the sweep stays runner-independent.
  options.cpu_per_pair_seconds = 5e-6;

  struct Case {
    std::string backend;
    std::string key;  // the backend and its flags, for messages
    align::BatchOptions options;
  };
  std::vector<Case> cases = {{"cpu", "cpu", options}};
  for (const auto& [label, variant] : pimwfa::testing::pim_variants(options)) {
    cases.push_back({"pim", label, variant});
  }
  cases.push_back({"hybrid", "hybrid", options});

  align::BackendRegistry& registry = align::backend_registry();
  for (const auto& [backend, key, backend_options] : cases) {
    // The owning path: the whole set handed to the backend in one run.
    const align::BatchResult unsharded =
        registry.create(backend, backend_options)
            ->run(batch, AlignmentScope::kFull);
    ASSERT_EQ(unsharded.results.size(), batch.size()) << key;

    align::BatchEngine engine(registry.create(backend, backend_options),
                              /*max_in_flight=*/3, /*workers=*/2);
    const align::BatchResult sharded =
        engine.run_sharded(batch, AlignmentScope::kFull, /*shards=*/3);

    ASSERT_EQ(sharded.results.size(), batch.size()) << key;
    for (usize i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(sharded.results[i], unsharded.results[i])
          << key << " sharded-vs-unsharded, " << pair_diag(config, i, batch[i]);
    }
    EXPECT_EQ(sharded.timings.pairs, batch.size()) << key;
    EXPECT_EQ(sharded.timings.bases_copied, 0u)
        << key << ": sharded dispatch over views must not copy bases";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedViewDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{64, 100},
        /*error_rates=*/{0.02, 0.10},
        /*penalty_sets=*/{Penalties::defaults()})),
    [](const auto& info) { return info.param.name(); });

// --- SIMD CPU layer ------------------------------------------------------
//
// The cpu-simd backend promises bit-identity with cpu: vector kernels and
// fast paths may only change how the optimum is found, never which optimum
// (score AND CIGAR) is reported. The sweep pins every dispatch level this
// build+host can execute, both through the layer API directly and through
// the registry entry under PIMWFA_FORCE_SIMD - exactly how the CI matrix
// legs drive it.

class SimdDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(SimdDifferential, CpuSimdIsBitIdenticalToCpuAtEveryLevel) {
  const DiffConfig config = GetParam();
  const seq::ReadPairSet batch =
      pimwfa::testing::diff_batch(config, kPairsPerConfig);

  align::BatchOptions options;
  options.penalties = config.penalties;
  options.cpu_threads = 2;

  align::BackendRegistry& registry = align::backend_registry();
  const align::BatchResult cpu_result =
      registry.create("cpu", options)->run(batch, AlignmentScope::kFull);
  ASSERT_EQ(cpu_result.results.size(), batch.size());

  std::vector<cpu::simd::SimdLevel> levels{cpu::simd::SimdLevel::kScalar};
  if (cpu::simd::runtime_level() >= cpu::simd::SimdLevel::kAvx2) {
    levels.push_back(cpu::simd::SimdLevel::kAvx2);
  }

  for (const cpu::simd::SimdLevel level : levels) {
    const char* name = cpu::simd::level_name(level);

    // The layer API at the pinned level, both scopes.
    for (const AlignmentScope scope :
         {AlignmentScope::kFull, AlignmentScope::kScoreOnly}) {
      std::vector<align::AlignmentResult> results(batch.size());
      cpu::simd::SimdStats stats;
      wfa::WfaCounters counters;
      u64 high_water = 0;
      cpu::simd::align_range(batch, 0, batch.size(), config.penalties, scope,
                             level, {}, results, stats, counters, high_water);
      for (usize i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(results[i].score, cpu_result.results[i].score)
            << "simd(" << name << ") vs cpu, " << pair_diag(config, i, batch[i]);
        if (scope == AlignmentScope::kFull) {
          ASSERT_EQ(results[i].cigar.ops(), cpu_result.results[i].cigar.ops())
              << "simd(" << name << ") cigar vs cpu, "
              << pair_diag(config, i, batch[i]);
          ASSERT_NO_THROW(align::verify_result(results[i], batch[i].pattern,
                                               batch[i].text,
                                               config.penalties))
              << pair_diag(config, i, batch[i]);
        }
      }
    }

    // The registry entry, dispatch forced through the environment knob.
    ASSERT_EQ(setenv("PIMWFA_FORCE_SIMD", name, 1), 0);
    const align::BatchResult simd_result =
        registry.create("cpu-simd", options)->run(batch, AlignmentScope::kFull);
    unsetenv("PIMWFA_FORCE_SIMD");
    ASSERT_EQ(simd_result.results.size(), batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(simd_result.results[i], cpu_result.results[i])
          << "cpu-simd(" << name << ") vs cpu, "
          << pair_diag(config, i, batch[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimdDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        // 33 puts full lane groups next to a ragged tail; 100 is the
        // paper's read length.
        /*lengths=*/{33, 64, 100},
        /*error_rates=*/{0.0, 0.02, 0.10},
        /*penalty_sets=*/
        {Penalties::defaults(), Penalties::edit(), Penalties{2, 12, 1}})),
    [](const auto& info) { return info.param.name(); });

// --- long reads: kUltralow and tiled PIM at 10k/50k ----------------------
//
// The long-read unlock rests on two equivalences at scale: the BiWFA
// kUltralow mode must reproduce kHigh bit-for-bit (scores AND CIGARs)
// while retaining an order of magnitude less wavefront memory, and the
// tiled PIM path - segments planned host-side, aligned on DPUs, stitched
// back - must reproduce the same alignments again.

class LongReadDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(LongReadDifferential, UltralowAndTiledPimMatchHighAtScale) {
  const DiffConfig config = GetParam();
  // A handful of pairs per cell: each alignment covers tens of thousands
  // of bases, so coverage comes from length, not pair count.
  const usize pairs = config.length >= 50'000 ? 2 : 3;
  const seq::ReadPairSet batch = pimwfa::testing::diff_batch(config, pairs);

  wfa::WfaAligner high(
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kHigh));
  // A small recursion base budget: the default (4 MiB) is already far
  // under kHigh at 100k-base scale, but these cells also pin the >= 10x
  // ratio at 10k where kHigh itself retains only ~1 MiB.
  wfa::WfaAligner::Options ultra_options =
      wfa_options(config.penalties, wfa::WfaAligner::MemoryMode::kUltralow);
  ultra_options.ultralow_base_wavefront_bytes = 64u << 10;
  wfa::WfaAligner ultra(ultra_options);

  std::vector<align::AlignmentResult> references;
  for (usize i = 0; i < batch.size(); ++i) {
    const seq::ReadPair& pair = batch[i];
    const auto reference =
        high.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto got = ultra.align(pair.pattern, pair.text,
                                 AlignmentScope::kFull);
    ASSERT_EQ(got.score, reference.score)
        << "ultralow vs high, " << config.name() << " pair " << i;
    ASSERT_EQ(got.cigar.ops(), reference.cigar.ops())
        << "ultralow vs high cigar, " << config.name() << " pair " << i;
    ASSERT_NO_THROW(align::verify_result(got, pair.pattern, pair.text,
                                         config.penalties))
        << config.name() << " pair " << i;
    references.push_back(reference);
  }

  // The whole point of kUltralow: an order of magnitude less live
  // wavefront memory at these lengths (the CI bench gates >= 10x at 100k).
  const u64 high_peak = high.counters().peak_wavefront_bytes;
  const u64 ultra_peak = ultra.counters().peak_wavefront_bytes;
  ASSERT_GT(ultra_peak, 0u);
  EXPECT_GE(high_peak, 10 * ultra_peak)
      << config.name() << ": kHigh peak " << high_peak
      << " vs kUltralow peak " << ultra_peak;

  // Tiled PIM: pairs this long exceed any tasklet's WRAM share, so the
  // batch must go through the tiling planner and still stitch back to the
  // reference alignments exactly. The pool runs the planner's levels in
  // parallel (and the sanitizer jobs with it).
  pim::PimOptions pim_options;
  pim_options.system = upmem::SystemConfig::tiny(2);
  pim_options.nr_tasklets = 4;
  pim_options.penalties = config.penalties;
  pim::PimBatchAligner pim(pim_options);
  ThreadPool pool(4);
  const pim::PimBatchResult tiled =
      pim.align_batch(batch, AlignmentScope::kFull, &pool);
  ASSERT_EQ(tiled.results.size(), batch.size());
  EXPECT_EQ(tiled.timings.tiled_pairs, batch.size());
  EXPECT_GT(tiled.timings.tile_segments, batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(tiled.results[i], references[i])
        << "tiled pim vs host wfa, " << config.name() << " pair " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LongReadDifferential,
    ::testing::ValuesIn(pimwfa::testing::diff_cross(
        /*lengths=*/{10'000, 50'000},
        /*error_rates=*/{0.01},
        /*penalty_sets=*/{Penalties::defaults(), Penalties{2, 12, 1}})),
    [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace pimwfa
