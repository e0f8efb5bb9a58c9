// The zero-copy batch view layer: ReadPairSpan construction and slicing
// edge cases, view lifetime vs. owning-set mutation, bit-identity of
// view-based vs. owning align_batch on every registered backend, and the
// hybrid calibration cache (exactly-once probing under a concurrent
// BatchEngine, invalidation on option change, split stability vs. the
// uncached path). Runs under the Debug ASan/UBSan CI job, which is what
// turns any dangling-view bug in the stack into a hard failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "test_util.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::BatchOptions;
using align::BatchResult;
using seq::ReadPairSet;
using seq::ReadPairSpan;

ReadPairSet small_batch(usize pairs = 96, u64 seed = 0x5EA) {
  seq::GeneratorConfig config;
  config.pairs = pairs;
  config.read_length = 64;
  config.error_rate = 0.05;
  config.seed = seed;
  return seq::generate_dataset(config);
}

BatchOptions tiny_options() {
  BatchOptions options;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_threads = 2;
  return options;
}

// --- span construction and slicing ---------------------------------------

TEST(ReadPairSpan, DefaultAndEmptySetViewsAreEmpty) {
  const ReadPairSpan null_span;
  EXPECT_EQ(null_span.size(), 0u);
  EXPECT_TRUE(null_span.empty());
  EXPECT_EQ(null_span.max_pattern_length(), 0u);
  EXPECT_EQ(null_span.max_text_length(), 0u);
  EXPECT_EQ(null_span.total_bases(), 0u);

  const ReadPairSet empty_set;
  const ReadPairSpan empty_view(empty_set);
  EXPECT_TRUE(empty_view.empty());
  EXPECT_EQ(empty_view.begin(), empty_view.end());
  EXPECT_TRUE(empty_view.subspan(0, 0).empty());
  EXPECT_TRUE(empty_view.to_owned().empty());
}

TEST(ReadPairSpan, WholeSetViewSeesEveryPairWithoutCopying) {
  const ReadPairSet set = small_batch(17);
  const ReadPairSpan view(set);
  ASSERT_EQ(view.size(), set.size());
  for (usize i = 0; i < set.size(); ++i) {
    EXPECT_EQ(view.pattern(i), set[i].pattern);
    EXPECT_EQ(view.text(i), set[i].text);
    // A view aliases the set's storage: same addresses, not equal copies.
    EXPECT_EQ(view.pattern(i).data(), set[i].pattern.data());
    EXPECT_EQ(&view[i], &set[i]);
  }
  EXPECT_EQ(view.max_pattern_length(), set.max_pattern_length());
  EXPECT_EQ(view.max_text_length(), set.max_text_length());
}

TEST(ReadPairSpan, SubspanEdgeCasesAndNesting) {
  const ReadPairSet set = small_batch(10);
  const ReadPairSpan view(set);

  const ReadPairSpan empty = view.subspan(4, 4);
  EXPECT_TRUE(empty.empty());

  const ReadPairSpan single = view.subspan(7, 8);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(&single[0], &set[7]);

  const ReadPairSpan full = view.subspan(0, view.size());
  ASSERT_EQ(full.size(), set.size());
  EXPECT_EQ(full.data(), view.data());

  // Nested sub-spans compose like index arithmetic: (2..9)(1..5) = 3..7.
  const ReadPairSpan nested = view.subspan(2, 9).subspan(1, 5);
  ASSERT_EQ(nested.size(), 4u);
  for (usize i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(&nested[i], &set[3 + i]);
  }

  EXPECT_EQ(view.first(3).size(), 3u);
  EXPECT_EQ(view.first(99).size(), view.size());  // clamped, not an error
}

TEST(ReadPairSpan, SubspanBoundsMisuseThrows) {
  const ReadPairSet set = small_batch(5);
  const ReadPairSpan view(set);
  EXPECT_THROW(view.subspan(3, 2), InvalidArgument);   // inverted
  EXPECT_THROW(view.subspan(0, 6), InvalidArgument);   // overrun
  EXPECT_THROW(view.subspan(6, 6), InvalidArgument);   // both past the end
  EXPECT_THROW(view.subspan(2, 9).subspan(0, 8), InvalidArgument);
}

// The unified bounds policy, in one place: subspan(begin, end) is an
// *exact work assignment* - a sub-batch handed to a backend or a shard -
// so out-of-range indices are a caller bug and throw (a clamped
// assignment would silently drop pairs from the batch). first(n) is a
// *sampling budget* - "up to n pairs for calibration" - so clamping to
// the batch is the contract, not leniency: a batch smaller than the
// budget is a valid sample of itself.
TEST(ReadPairSpan, BoundsPolicySubspanThrowsWhereFirstClamps) {
  const ReadPairSet set = small_batch(6);
  const ReadPairSpan view(set);

  EXPECT_THROW(view.subspan(0, 7), InvalidArgument);
  EXPECT_THROW(view.subspan(7, 7), InvalidArgument);

  EXPECT_TRUE(view.first(0).empty());
  EXPECT_EQ(view.first(6).size(), 6u);   // budget == batch
  EXPECT_EQ(view.first(7).size(), 6u);   // budget > batch: clamped
  EXPECT_EQ(view.first(static_cast<usize>(-1)).size(), 6u);
  // The clamped sample aliases the same storage (still zero-copy).
  EXPECT_EQ(view.first(99).data(), view.data());
}

// --- copy accounting ------------------------------------------------------

TEST(BasesCopiedCounter, OwningCarvesCountAndViewsDoNot) {
  const ReadPairSet set = small_batch(12);
  const ReadPairSpan view(set);

  // The counter is a process-wide atomic; relaxed loads are the documented
  // access convention (it is a statistic, not a synchronization edge).
  std::atomic<u64>& counter = seq::bases_copied_counter();
  const u64 before = counter.load(std::memory_order_relaxed);
  (void)view.subspan(2, 10);
  (void)view.first(6);
  EXPECT_EQ(counter.load(std::memory_order_relaxed), before)
      << "view carving must not copy bases";

  const ReadPairSet sliced = view.subspan(2, 10).to_owned();
  u64 expected = 0;
  for (usize i = 2; i < 10; ++i) {
    expected += set[i].pattern.size() + set[i].text.size();
  }
  EXPECT_EQ(counter.load(std::memory_order_relaxed), before + expected);

  const ReadPairSet owned = view.subspan(2, 10).to_owned();
  EXPECT_EQ(counter.load(std::memory_order_relaxed), before + 2 * expected);
  EXPECT_EQ(owned, sliced);
}

// --- view lifetime vs. owning-set mutation --------------------------------

TEST(ReadPairSpan, OwnedCopyIsIndependentOfTheSetItCameFrom) {
  ReadPairSet set = small_batch(6);
  const ReadPairSet snapshot = ReadPairSpan(set).subspan(1, 4).to_owned();
  ASSERT_EQ(snapshot.size(), 3u);
  const std::string pattern_at_1 = set[1].pattern;

  // Mutating (growing) the set may reallocate its pair storage - which is
  // exactly why spans taken before a mutation must be re-taken after it -
  // but an owned snapshot is unaffected.
  for (usize i = 0; i < 64; ++i) {
    set.add({std::string(40, 'A'), std::string(40, 'C')});
  }
  EXPECT_EQ(snapshot[0].pattern, pattern_at_1);

  // Re-taken views observe the mutated set.
  const ReadPairSpan fresh(set);
  EXPECT_EQ(fresh.size(), 6u + 64u);
  EXPECT_EQ(fresh.pattern(6 + 63), std::string(40, 'A'));
}

TEST(ReadPairSpan, ViewOutlivesNothingButItsStorage) {
  // A span over a set that lives longer stays valid even after other
  // (non-mutating) uses of the set; ASan guards the negative direction.
  const ReadPairSet set = small_batch(9);
  ReadPairSpan view;
  {
    const ReadPairSpan inner(set);
    view = inner.subspan(3, 8);  // spans are trivially copyable handles
  }
  ASSERT_EQ(view.size(), 5u);
  for (usize i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.pattern(i), set[3 + i].pattern);
  }
}

// --- view-based vs. owning runs on every registered backend ---------------

TEST(ViewBackendIdentity, ViewAndOwningRunsAreBitIdenticalOnEveryBackend) {
  const ReadPairSet batch = small_batch(72, 0xB1D);
  // An interior window exercises non-zero span offsets.
  const usize begin = 8;
  const usize end = 64;
  const ReadPairSpan window = ReadPairSpan(batch).subspan(begin, end);
  const ReadPairSet owned = window.to_owned();

  for (const std::string& key : align::backend_registry().names()) {
    const BatchOptions options = tiny_options();
    const BatchResult from_view =
        align::backend_registry().create(key, options)->run(
            window, AlignmentScope::kFull);
    const BatchResult from_owned =
        align::backend_registry().create(key, options)->run(
            owned, AlignmentScope::kFull);

    ASSERT_EQ(from_view.results.size(), end - begin) << key;
    ASSERT_EQ(from_owned.results.size(), end - begin) << key;
    for (usize i = 0; i < from_view.results.size(); ++i) {
      ASSERT_EQ(from_view.results[i], from_owned.results[i])
          << key << " pair " << i << " (scores and CIGARs must be "
          << "bit-identical between view-based and owning runs)";
    }
    EXPECT_EQ(from_view.timings.bases_copied, 0u)
        << key << ": a view-based run must not copy bases to carve work";
  }
}

// --- hybrid calibration cache ---------------------------------------------

BatchOptions deterministic_hybrid_options() {
  BatchOptions options = tiny_options();
  // Deterministic CPU model: the calibration (and thus the split) depends
  // only on the batch shape, never on host speed - which is what lets the
  // cached and uncached paths be compared exactly.
  options.cpu_per_pair_seconds = 5e-6;
  return options;
}

TEST(CalibrationCache, RepeatedRunsOfOneConfigurationCalibrateOnce) {
  const ReadPairSet batch = small_batch(80, 0xCAC);
  align::HybridBatchAligner hybrid(deterministic_hybrid_options());
  EXPECT_EQ(hybrid.calibrations_performed(), 0u);

  const BatchResult first = hybrid.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(hybrid.calibrations_performed(), 1u);
  for (int i = 0; i < 4; ++i) {
    const BatchResult again = hybrid.run(batch, AlignmentScope::kFull);
    ASSERT_EQ(again.results.size(), first.results.size());
    for (usize p = 0; p < first.results.size(); ++p) {
      ASSERT_EQ(again.results[p], first.results[p]) << "pair " << p;
    }
    EXPECT_EQ(again.timings.cpu_fraction, first.timings.cpu_fraction);
  }
  EXPECT_EQ(hybrid.calibrations_performed(), 1u)
      << "repeated runs of an unchanged configuration must reuse the "
      << "cached probe";

  // A different scope is a different configuration.
  (void)hybrid.run(batch, AlignmentScope::kScoreOnly);
  EXPECT_EQ(hybrid.calibrations_performed(), 2u);
  // ... but it does not evict the first entry.
  (void)hybrid.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(hybrid.calibrations_performed(), 2u);
}

TEST(CalibrationCache, ConcurrentEngineSubmissionsProbeExactlyOnce) {
  constexpr usize kThreads = 4;
  constexpr usize kRunsPerThread = 3;
  const ReadPairSet batch = small_batch(64, 0x57E);

  auto backend = std::make_unique<align::HybridBatchAligner>(
      deterministic_hybrid_options());
  align::HybridBatchAligner* hybrid = backend.get();
  align::BatchEngine engine(std::move(backend), /*max_in_flight=*/kThreads,
                            /*workers=*/2);

  // N threads hammer one engine (and therefore one HybridBatchAligner)
  // with the same batch view; every in-flight run races on the cache and
  // exactly one of them may compute the probe.
  std::vector<std::thread> threads;
  std::vector<BatchResult> results(kThreads * kRunsPerThread);
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (usize r = 0; r < kRunsPerThread; ++r) {
        results[t * kRunsPerThread + r] =
            engine.submit(seq::ReadPairSpan(batch), AlignmentScope::kFull)
                .get();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  engine.wait_idle();

  EXPECT_EQ(hybrid->calibrations_performed(), 1u)
      << "concurrent same-configuration runs must share one probe";
  for (usize i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].results.size(), results[0].results.size());
    for (usize p = 0; p < results[0].results.size(); ++p) {
      ASSERT_EQ(results[i].results[p], results[0].results[p])
          << "run " << i << " pair " << p;
    }
    EXPECT_EQ(results[i].timings.cpu_fraction,
              results[0].timings.cpu_fraction);
    EXPECT_EQ(results[i].timings.bases_copied, 0u);
  }
}

TEST(CalibrationCache, OptionChangeInvalidatesTheCache) {
  const ReadPairSet batch = small_batch(60, 0x097);
  align::HybridBatchAligner hybrid(deterministic_hybrid_options());
  (void)hybrid.run(batch, AlignmentScope::kFull);
  (void)hybrid.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(hybrid.calibrations_performed(), 1u);

  // A changed CPU model is a new configuration: the cache is dropped and
  // the next run recalibrates (counter restarts with the new options).
  BatchOptions faster_cpu = deterministic_hybrid_options();
  faster_cpu.cpu_per_pair_seconds = 1e-6;
  hybrid.set_options(faster_cpu);
  EXPECT_EQ(hybrid.calibrations_performed(), 0u);
  const BatchResult after = hybrid.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(hybrid.calibrations_performed(), 1u);
  ASSERT_EQ(after.results.size(), batch.size());

  // The new calibration reflects the new options, not the stale cache:
  // the recalibrated per-pair cost is the new override, not the old one.
  // (The alone-times may coincide - this tiny batch is floored by the
  // roofline's DRAM-traffic term either way.)
  align::HybridBatchAligner slow(deterministic_hybrid_options());
  const align::HybridBatchAligner::Plan slow_plan =
      slow.plan(batch, AlignmentScope::kFull);
  const align::HybridBatchAligner::Plan fast_plan =
      hybrid.plan(batch, AlignmentScope::kFull);
  EXPECT_DOUBLE_EQ(fast_plan.cpu_per_pair_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(slow_plan.cpu_per_pair_seconds, 5e-6);
}

TEST(CalibrationCache, CachedSplitMatchesTheUncachedPath) {
  const ReadPairSet batch = small_batch(90, 0xF8A);
  const BatchOptions options = deterministic_hybrid_options();

  align::HybridBatchAligner cached(options);
  const align::HybridBatchAligner::Plan first =
      cached.plan(batch, AlignmentScope::kFull);
  const align::HybridBatchAligner::Plan second =
      cached.plan(batch, AlignmentScope::kFull);  // served from the cache

  align::HybridBatchAligner fresh(options);  // the uncached path
  const align::HybridBatchAligner::Plan uncached =
      fresh.plan(batch, AlignmentScope::kFull);

  EXPECT_EQ(cached.calibrations_performed(), 1u);
  EXPECT_EQ(fresh.calibrations_performed(), 1u);
  for (const align::HybridBatchAligner::Plan* plan : {&second, &uncached}) {
    EXPECT_EQ(plan->cpu_pairs, first.cpu_pairs);
    EXPECT_EQ(plan->pim_pairs, first.pim_pairs);
    EXPECT_DOUBLE_EQ(plan->cpu_fraction, first.cpu_fraction);
    EXPECT_DOUBLE_EQ(plan->cpu_alone_seconds, first.cpu_alone_seconds);
    EXPECT_DOUBLE_EQ(plan->pim_alone_seconds, first.pim_alone_seconds);
  }
}

}  // namespace
}  // namespace pimwfa
