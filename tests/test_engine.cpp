// The unified batch execution layer: BatchAligner vocabulary, backend
// registry, the hybrid CPU+PIM dispatcher's split mechanics, and the
// asynchronous BatchEngine (multi-batch in-flight submission, input-order
// sharded merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/simd/simd.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::BatchOptions;
using align::BatchResult;

seq::ReadPairSet small_batch(usize pairs = 96, u64 seed = 0xE46) {
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

// --- registry ------------------------------------------------------------

const std::vector<std::string> kBuiltinBackends = {"cpu", "cpu-simd", "pim",
                                                   "hybrid"};

TEST(BackendRegistry, BuiltinBackendsAreRegistered) {
  align::BackendRegistry& registry = align::backend_registry();
  for (const std::string& name : kBuiltinBackends) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  // The PIM variants are BatchOptions flags on `pim`, not keys.
  EXPECT_FALSE(registry.contains("pim-pipelined"));
  EXPECT_FALSE(registry.contains("pim-packed"));
  const std::vector<std::string> names = registry.names();
  ASSERT_GE(names.size(), kBuiltinBackends.size());
  EXPECT_TRUE(std::equal(kBuiltinBackends.begin(), kBuiltinBackends.end(),
                         names.begin()));
  EXPECT_NE(registry.describe().find("hybrid"), std::string::npos);
  EXPECT_NE(registry.describe().find("--pipeline"), std::string::npos);
}

TEST(BackendRegistry, UnknownBackendThrowsWithKnownNames) {
  try {
    align::backend_registry().create("gpu", BatchOptions{});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    for (const std::string& name : kBuiltinBackends) {
      EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
          << name;
    }
  }
}

TEST(BackendRegistry, DuplicateRegistrationThrows) {
  align::BackendRegistry registry;
  auto factory = [](const BatchOptions& options) {
    return std::make_unique<cpu::CpuBatchAligner>(options);
  };
  registry.add("custom", "test", factory);
  EXPECT_TRUE(registry.contains("custom"));
  EXPECT_THROW(registry.add("custom", "again", factory), InvalidArgument);
}

// A PIM option the pim backend rejects fails at construction for the
// hybrid too, which builds its PIM side up front.
TEST(BackendRegistry, CreateRejectsAnInvalidPimOptionForPimAndHybrid) {
  BatchOptions options = tiny_options();
  options.pim_tasklets = 100;
  for (const std::string key : {"pim", "hybrid"}) {
    EXPECT_THROW(align::backend_registry().create(key, options),
                 InvalidArgument)
        << key;
  }
}

TEST(BackendRegistry, BackendNamesMatchTheirKeys) {
  for (const std::string& key : kBuiltinBackends) {
    const auto backend =
        align::backend_registry().create(key, tiny_options());
    EXPECT_EQ(backend->name(), key);
  }
  for (const auto& [label, options] :
       pimwfa::testing::pim_variants(tiny_options())) {
    EXPECT_EQ(align::backend_registry().create("pim", options)->name(), "pim")
        << label;
  }
}

// --- unified run() vs native APIs ----------------------------------------

TEST(UnifiedRun, CpuBackendMatchesNativeBatchApi) {
  const seq::ReadPairSet batch = small_batch();
  const auto backend = align::backend_registry().create("cpu", tiny_options());
  const BatchResult unified = backend->run(batch, AlignmentScope::kFull);

  const cpu::CpuBatchAligner native(
      cpu::CpuBatchOptions{align::Penalties::defaults(), 1});
  const cpu::CpuBatchResult reference =
      native.align_batch(batch, AlignmentScope::kFull);

  ASSERT_EQ(unified.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(unified.results[i], reference.results[i]) << "pair " << i;
  }
  EXPECT_EQ(unified.backend, "cpu");
  EXPECT_EQ(unified.timings.pairs, batch.size());
  EXPECT_EQ(unified.timings.cpu_fraction, 1.0);
  EXPECT_GT(unified.timings.modeled_seconds, 0.0);
  EXPECT_GT(unified.timings.wall_seconds, 0.0);
}

TEST(UnifiedRun, PimBackendsMatchNativeAndEachOther) {
  const seq::ReadPairSet batch = small_batch();
  pim::PimOptions native_options;
  native_options.system = upmem::SystemConfig::tiny(4);
  native_options.nr_tasklets = 8;
  pim::PimBatchAligner native(native_options);
  const pim::PimBatchResult reference =
      native.align_batch(batch, AlignmentScope::kFull);

  for (const auto& [key, options] :
       pimwfa::testing::pim_variants(tiny_options())) {
    const auto backend = align::backend_registry().create("pim", options);
    const BatchResult unified = backend->run(batch, AlignmentScope::kFull);
    ASSERT_EQ(unified.results.size(), batch.size()) << key;
    for (usize i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(unified.results[i], reference.results[i])
          << key << " pair " << i;
    }
    EXPECT_EQ(unified.backend, "pim") << key;
    EXPECT_EQ(unified.timings.pim_pairs, batch.size()) << key;
    EXPECT_EQ(unified.timings.cpu_fraction, 0.0) << key;
    EXPECT_GT(unified.timings.modeled_seconds, 0.0) << key;
    EXPECT_EQ(unified.timings.modeled_seconds,
              unified.timings.pim_modeled_seconds)
        << key;
  }
}

// --- CpuBatchAligner external pool (engine-shared workers) ---------------

TEST(CpuExternalPool, ExternalPoolMatchesInternalAndSingleThread) {
  const seq::ReadPairSet batch = small_batch();
  const cpu::CpuBatchAligner aligner(
      cpu::CpuBatchOptions{align::Penalties::defaults(), 3});
  const cpu::CpuBatchResult internal =
      aligner.align_batch(batch, AlignmentScope::kFull);

  ThreadPool pool(3);
  const cpu::CpuBatchResult external =
      aligner.align_batch(batch, AlignmentScope::kFull, &pool);
  // The pool can be reused across calls (the point of the overload).
  const cpu::CpuBatchResult again =
      aligner.align_batch(batch, AlignmentScope::kFull, &pool);

  ASSERT_EQ(external.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(external.results[i], internal.results[i]) << "pair " << i;
    EXPECT_EQ(again.results[i], internal.results[i]) << "pair " << i;
  }
  // Work counters are thread-partition-independent aggregates.
  EXPECT_EQ(external.work.computed_cells, internal.work.computed_cells);
}

// --- hybrid split mechanics ----------------------------------------------

TEST(Hybrid, ForcedFractionsDegenerateToPureBackends) {
  const seq::ReadPairSet batch = small_batch();

  BatchOptions all_pim = tiny_options();
  all_pim.hybrid_cpu_fraction = 0.0;
  align::HybridBatchAligner pim_only(all_pim);
  const BatchResult pim_result = pim_only.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(pim_result.timings.pim_pairs, batch.size());
  EXPECT_EQ(pim_result.timings.cpu_pairs, 0u);
  EXPECT_EQ(pim_result.timings.cpu_modeled_seconds, 0.0);

  BatchOptions all_cpu = tiny_options();
  all_cpu.hybrid_cpu_fraction = 1.0;
  align::HybridBatchAligner cpu_only(all_cpu);
  const BatchResult cpu_result = cpu_only.run(batch, AlignmentScope::kFull);
  EXPECT_EQ(cpu_result.timings.cpu_pairs, batch.size());
  EXPECT_EQ(cpu_result.timings.pim_pairs, 0u);
  EXPECT_EQ(cpu_result.timings.pim_modeled_seconds, 0.0);

  ASSERT_EQ(pim_result.results.size(), batch.size());
  ASSERT_EQ(cpu_result.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(pim_result.results[i], cpu_result.results[i]) << "pair " << i;
  }
}

TEST(Hybrid, CalibratedSplitIsConsistentAndCompleteOnTinySystems) {
  const seq::ReadPairSet batch = small_batch(120);
  BatchOptions options = tiny_options();
  align::HybridBatchAligner hybrid(options);
  const align::HybridBatchAligner::Plan plan =
      hybrid.plan(batch, AlignmentScope::kFull);
  EXPECT_EQ(plan.pairs, batch.size());
  EXPECT_EQ(plan.cpu_pairs + plan.pim_pairs, plan.pairs);
  EXPECT_GT(plan.cpu_alone_seconds, 0.0);
  EXPECT_GT(plan.pim_alone_seconds, 0.0);
  EXPECT_GT(plan.cpu_per_pair_seconds, 0.0);

  const BatchResult result = hybrid.run(batch, AlignmentScope::kFull);
  ASSERT_EQ(result.results.size(), batch.size());
  const align::BatchTimings& t = result.timings;
  EXPECT_EQ(t.cpu_pairs + t.pim_pairs, batch.size());
  EXPECT_DOUBLE_EQ(
      t.modeled_seconds,
      std::max(t.cpu_modeled_seconds, t.pim_modeled_seconds));

  // A one-pair batch: the measuring calibration (no cpu_per_pair_seconds
  // override) times a one-pair sample, and its per-pair cost stays finite.
  ASSERT_EQ(options.cpu_per_pair_seconds, 0.0);
  const seq::ReadPairSet one = small_batch(1);
  const align::HybridBatchAligner::Plan single =
      hybrid.plan(one, AlignmentScope::kFull);
  EXPECT_EQ(single.cpu_pairs + single.pim_pairs, one.size());
  EXPECT_TRUE(std::isfinite(single.cpu_per_pair_seconds));
  EXPECT_GT(single.cpu_per_pair_seconds, 0.0);
}

// The acceptance-criteria configuration: paper-shaped and transfer-bound
// (full 2560-DPU system, E=2% 100bp full alignment), with a deterministic
// CPU calibration override so the split does not depend on host speed.
// The run is the one bench_hybrid assembles: the hybrid's plan for the
// modeled batch, its PIM share on a pim backend that simulates only the
// first DPUs, and its CPU share modeled from the calibrated alone-time.
// The modeled end-to-end time must beat both sides alone.
TEST(Hybrid, PaperShapeModeledTimeBeatsBothBackendsAlone) {
  constexpr usize kSimulatedDpus = 2;
  constexpr usize kMaterialized = 200;
  constexpr usize kModeledPairs = 2560 * (kMaterialized / kSimulatedDpus);
  const seq::ReadPairSet batch = small_batch(kMaterialized, 0x7A9E);

  BatchOptions options;
  options.pim_dpus = 0;  // the paper's 2560-DPU system
  options.pim_tasklets = 24;
  // ~2x the PIM total on this workload: comfortably transfer-bound, and
  // deterministic (no host measurement).
  options.cpu_per_pair_seconds = 5e-6;

  align::HybridBatchAligner hybrid(options);
  const align::HybridBatchAligner::Plan plan =
      hybrid.plan(batch, AlignmentScope::kFull, nullptr, kModeledPairs);
  ASSERT_GT(plan.cpu_pairs, 0u);
  ASSERT_GT(plan.pim_pairs, 0u);
  EXPECT_EQ(plan.pairs, kModeledPairs);
  EXPECT_EQ(plan.cpu_pairs + plan.pim_pairs, kModeledPairs);

  const usize pim_materialized = std::min(batch.size(), plan.pim_pairs);
  pim::PimOptions pim_options = pim::PimOptions::from(options);
  pim_options.simulate_dpus = kSimulatedDpus;
  pim_options.virtual_total_pairs =
      plan.pim_pairs > pim_materialized ? plan.pim_pairs : 0;
  pim::PimBatchAligner pim_share(pim_options);
  const BatchResult result = pim_share.run(
      seq::ReadPairSpan(batch).first(pim_materialized), AlignmentScope::kFull);
  const double cpu_seconds = plan.cpu_alone_seconds *
                             static_cast<double>(plan.cpu_pairs) /
                             static_cast<double>(plan.pairs);
  const double hybrid_seconds =
      std::max(cpu_seconds, result.timings.modeled_seconds);
  const double best_alone =
      std::min(plan.cpu_alone_seconds, plan.pim_alone_seconds);
  EXPECT_GT(hybrid_seconds, 0.0);
  EXPECT_LT(hybrid_seconds, best_alone)
      << "hybrid " << hybrid_seconds << "s vs cpu " << plan.cpu_alone_seconds
      << "s / pim " << plan.pim_alone_seconds << "s";

  // Only the simulated DPUs' share of the PIM side materializes: a strict
  // prefix of the input, bit-identical to a fully simulated pim backend
  // on the same pairs.
  ASSERT_GT(result.results.size(), 0u);
  ASSERT_LT(result.results.size(), batch.size());
  const auto fully_simulated =
      align::backend_registry().create("pim", tiny_options());
  const BatchResult reference = fully_simulated->run(
      seq::ReadPairSpan(batch).first(result.results.size()),
      AlignmentScope::kFull);
  ASSERT_EQ(reference.results.size(), result.results.size());
  for (usize i = 0; i < result.results.size(); ++i) {
    EXPECT_EQ(result.results[i], reference.results[i]) << "pair " << i;
  }
}

// Without the override, the calibrator's own SIMD counters price the CPU
// traffic floor: the same figure model_sample gives for the calibration
// sample, scaled to the batch.
TEST(Hybrid, SimdCalibrationTrafficMatchesTheSampledModel) {
  const seq::ReadPairSet batch = seq::fig1_dataset(200, 0.02, 0x51D);
  BatchOptions options = tiny_options();
  options.cpu_simd = true;
  ASSERT_EQ(options.cpu_per_pair_seconds, 0.0);
  ASSERT_LT(align::HybridBatchAligner::kCalibrationPairs, batch.size());
  align::HybridBatchAligner hybrid(options);
  const align::HybridBatchAligner::Plan plan =
      hybrid.plan(batch, AlignmentScope::kFull);

  const seq::ReadPairSpan sample = seq::ReadPairSpan(batch).first(
      align::HybridBatchAligner::kCalibrationPairs);
  const cpu::simd::SimdLevel level = cpu::simd::active_level();
  const cpu::simd::SpeedupModel model = cpu::simd::model_sample(
      sample, options.penalties, AlignmentScope::kFull, {}, level);
  EXPECT_LT(model.fast_path_fraction, 1.0);
  EXPECT_GT(model.fast_path_fraction, 0.0);
  EXPECT_EQ(plan.cpu_traffic_bytes,
            model.traffic_bytes_per_pair * static_cast<double>(batch.size()));
}

// --- BatchEngine ---------------------------------------------------------

// Backend test double that blocks until `expected` batches are running at
// once: if the engine serialized submissions the barrier would never
// fill and the test would hang (and time out).
class BarrierBackend final : public align::BatchAligner {
 public:
  explicit BarrierBackend(usize expected) : expected_(expected) {}

  BatchResult run(seq::ReadPairSpan batch, align::AlignmentScope,
                  ThreadPool*) override {
    {
      std::unique_lock lock(mutex_);
      ++running_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return running_ >= expected_; });
    }
    BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      out.results[i].score = static_cast<i64>(batch.pattern(i).size());
    }
    out.timings.pairs = batch.size();
    return out;
  }
  std::string name() const override { return "barrier"; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  usize running_ = 0;
  const usize expected_;
};

TEST(BatchEngine, KeepsMultipleBatchesInFlightConcurrently) {
  constexpr usize kBatches = 3;
  align::BatchEngine engine(std::make_unique<BarrierBackend>(kBatches),
                            /*max_in_flight=*/kBatches, /*workers=*/0);
  std::vector<std::future<BatchResult>> futures;
  std::vector<usize> sizes = {5, 9, 13};
  for (const usize n : sizes) {
    seq::ReadPairSet batch;
    for (usize i = 0; i < n; ++i) {
      batch.add({std::string(n, 'A'), std::string(n, 'A')});
    }
    futures.push_back(engine.submit(std::move(batch),
                                    AlignmentScope::kScoreOnly));
  }
  EXPECT_EQ(engine.submitted(), kBatches);
  for (usize b = 0; b < kBatches; ++b) {
    const BatchResult result = futures[b].get();
    ASSERT_EQ(result.results.size(), sizes[b]);
    for (const auto& r : result.results) {
      EXPECT_EQ(r.score, static_cast<i64>(sizes[b]));
    }
  }
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(BatchEngine, SubmitViaRegistryBackendReturnsCorrectResults) {
  align::BatchEngine engine(
      align::backend_registry().create("cpu", tiny_options()),
      /*max_in_flight=*/2, /*workers=*/2);
  EXPECT_EQ(engine.backend_name(), "cpu");

  const seq::ReadPairSet a = small_batch(40, 0xAA);
  const seq::ReadPairSet b = small_batch(60, 0xBB);
  // Borrowing an lvalue set is an explicit act (the ReadPairSet lvalue
  // overload is deleted): a and b outlive the futures below.
  auto fa = engine.submit(seq::ReadPairSpan(a), AlignmentScope::kFull);
  auto fb = engine.submit(seq::ReadPairSpan(b), AlignmentScope::kFull);

  const cpu::CpuBatchAligner reference(
      cpu::CpuBatchOptions{align::Penalties::defaults(), 1});
  const auto ra = reference.align_batch(a, AlignmentScope::kFull);
  const auto rb = reference.align_batch(b, AlignmentScope::kFull);

  const BatchResult got_a = fa.get();
  const BatchResult got_b = fb.get();
  ASSERT_EQ(got_a.results.size(), a.size());
  ASSERT_EQ(got_b.results.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(got_a.results[i], ra.results[i]) << "batch a pair " << i;
  }
  for (usize i = 0; i < b.size(); ++i) {
    EXPECT_EQ(got_b.results[i], rb.results[i]) << "batch b pair " << i;
  }
}

TEST(BatchEngine, RunShardedMergesInInputOrder) {
  const seq::ReadPairSet batch = small_batch(101, 0xCC);
  align::BatchEngine engine(
      align::backend_registry().create("pim", tiny_options()),
      /*max_in_flight=*/3, /*workers=*/2);

  const BatchResult sharded =
      engine.run_sharded(batch, AlignmentScope::kFull, /*shards=*/5);

  pim::PimOptions reference_options;
  reference_options.system = upmem::SystemConfig::tiny(4);
  reference_options.nr_tasklets = 8;
  pim::PimBatchAligner reference(reference_options);
  const pim::PimBatchResult expected =
      reference.align_batch(batch, AlignmentScope::kFull);

  ASSERT_EQ(sharded.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(sharded.results[i], expected.results[i]) << "pair " << i;
  }
  EXPECT_EQ(sharded.timings.pairs, batch.size());
  EXPECT_GT(sharded.timings.modeled_seconds, 0.0);
}

TEST(BatchEngine, RunShardedFailsAPartiallyMaterializedShard) {
  // A partially simulated PIM backend materializes only a prefix of each
  // shard; the call must fail instead of returning results that stop
  // short of (or misalign with) the input.
  const seq::ReadPairSet batch = small_batch(80, 0xDD);
  pim::PimOptions options = pim::PimOptions::from(tiny_options());
  options.simulate_dpus = 2;  // of 4 DPUs: half of each shard
  align::BatchEngine engine(std::make_unique<pim::PimBatchAligner>(options));

  try {
    (void)engine.run_sharded(batch, AlignmentScope::kFull, /*shards=*/4);
    FAIL() << "expected Error for a partially materialized shard";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("fully materialized"),
              std::string::npos)
        << error.what();
  }
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(BatchEngine, RunShardedDrainsEveryShardBeforeRethrowing) {
  // One poison shard (recognized by its first pair's pattern) throws
  // immediately; the healthy shards take ~30ms each. run_sharded must
  // drain them all before rethrowing - the caller's span storage is only
  // guaranteed alive until run_sharded returns, so a shard still running
  // after the rethrow would be a use-after-free in waiting.
  class PoisonShardBackend final : public align::BatchAligner {
   public:
    explicit PoisonShardBackend(std::atomic<usize>& healthy_completed)
        : healthy_completed_(healthy_completed) {}
    BatchResult run(seq::ReadPairSpan batch, align::AlignmentScope,
                    ThreadPool*) override {
      if (batch.pattern(0) == "XXXX") throw InvalidArgument("poison shard");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      BatchResult out;
      out.backend = name();
      out.results.resize(batch.size());
      out.timings.pairs = batch.size();
      ++healthy_completed_;
      return out;
    }
    std::string name() const override { return "poison"; }

   private:
    std::atomic<usize>& healthy_completed_;
  };

  constexpr usize kShards = 4;
  seq::ReadPairSet batch;
  batch.add({"XXXX", "XXXX"});  // lands in shard 0, the first to be .get()
  for (usize i = 1; i < 2 * kShards; ++i) batch.add({"ACGT", "ACGT"});

  std::atomic<usize> healthy_completed{0};
  align::BatchEngine engine(
      std::make_unique<PoisonShardBackend>(healthy_completed),
      /*max_in_flight=*/kShards, /*workers=*/0);
  EXPECT_THROW(
      engine.run_sharded(batch, AlignmentScope::kScoreOnly, kShards),
      InvalidArgument);
  // At the moment the rethrow reached us, every healthy shard had already
  // completed: nothing is left running against the caller's storage.
  EXPECT_EQ(healthy_completed.load(), kShards - 1);
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(BatchEngine, BackendExceptionsPropagateThroughTheFuture) {
  class ThrowingBackend final : public align::BatchAligner {
   public:
    BatchResult run(seq::ReadPairSpan, align::AlignmentScope,
                    ThreadPool*) override {
      throw InvalidArgument("boom");
    }
    std::string name() const override { return "throwing"; }
  };
  align::BatchEngine engine(std::make_unique<ThrowingBackend>(), 1, 0);
  auto future = engine.submit(small_batch(4), AlignmentScope::kScoreOnly);
  EXPECT_THROW(future.get(), InvalidArgument);

  // The completion path delivers the same exception, with an empty result.
  const seq::ReadPairSet batch = small_batch(4);
  std::promise<std::pair<BatchResult, std::exception_ptr>> outcome;
  engine.submit(seq::ReadPairSpan(batch), AlignmentScope::kScoreOnly,
                [&outcome](BatchResult result, std::exception_ptr error) {
                  outcome.set_value({std::move(result), error});
                });
  const auto [result, error] = outcome.get_future().get();
  EXPECT_TRUE(result.results.empty());
  EXPECT_TRUE(result.backend.empty());
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), InvalidArgument);
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(BatchEngine, CompletionRunsOnceOnADispatcherThreadWhileCounted) {
  constexpr usize kBatches = 8;
  // A one-batch barrier never blocks: an instant, deterministic backend.
  align::BatchEngine engine(std::make_unique<BarrierBackend>(1),
                            /*max_in_flight=*/2, /*workers=*/0);
  const seq::ReadPairSet batch = small_batch(6);
  std::mutex mutex;
  std::vector<usize> calls(kBatches, 0);
  std::vector<std::thread::id> threads;
  std::vector<usize> in_flight_seen;
  for (usize b = 0; b < kBatches; ++b) {
    engine.submit(seq::ReadPairSpan(batch), AlignmentScope::kScoreOnly,
                  [&, b](BatchResult result, std::exception_ptr error) {
                    EXPECT_FALSE(error);
                    EXPECT_EQ(result.results.size(), batch.size());
                    std::lock_guard lock(mutex);
                    ++calls[b];
                    threads.push_back(std::this_thread::get_id());
                    in_flight_seen.push_back(engine.in_flight());
                  });
  }
  engine.wait_idle();
  EXPECT_EQ(calls, std::vector<usize>(kBatches, 1));
  ASSERT_EQ(threads.size(), kBatches);
  for (usize i = 0; i < kBatches; ++i) {
    EXPECT_NE(threads[i], std::this_thread::get_id());
    EXPECT_GE(in_flight_seen[i], 1u) << "the batch was no longer counted";
  }
  EXPECT_EQ(engine.submitted(), kBatches);
  EXPECT_EQ(engine.in_flight(), 0u);
}

// Regression: the counters were declared after the pools, so the
// dispatcher's destructor ran the still-queued tasks against counters
// already destroyed. Teardown with queued batches must run every
// completion before the destructor returns.
TEST(BatchEngine, DestructorRunsTheCompletionOfEveryQueuedBatch) {
  constexpr usize kBatches = 4;
  const seq::ReadPairSet batch = small_batch(4);
  std::atomic<usize> completions{0};
  std::thread opener;
  {
    auto backend = std::make_unique<testing::GateBackend>();
    testing::GateBackend& gate = *backend;
    align::BatchEngine engine(std::move(backend), /*max_in_flight=*/1,
                              /*workers=*/0);
    for (usize b = 0; b < kBatches; ++b) {
      engine.submit(seq::ReadPairSpan(batch), AlignmentScope::kScoreOnly,
                    [&completions](BatchResult, std::exception_ptr) {
                      completions.fetch_add(1);
                    });
    }
    gate.wait_entered(1);  // one batch runs, the rest wait in the queue
    // The backend lives until the dispatcher drained, so the gate can be
    // opened from another thread while this one is in the destructor.
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.open();
    });
  }
  opener.join();
  EXPECT_EQ(completions.load(), kBatches);
}

// --- options validation ---------------------------------------------------

TEST(BatchOptions, ValidateRejectsBadFields) {
  BatchOptions options;
  options.hybrid_cpu_fraction = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = BatchOptions{};
  options.pim_tasklets = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = BatchOptions{};
  options.penalties.mismatch = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  // A forced chunk count without pipelining would be ignored silently.
  options = BatchOptions{};
  options.pim_pipeline_chunks = 4;
  try {
    options.validate();
    FAIL() << "expected InvalidArgument for --chunks without --pipeline";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("--pipeline"),
              std::string::npos)
        << error.what();
  }
  options.pim_pipeline = true;
  EXPECT_NO_THROW(options.validate());
  EXPECT_NO_THROW(BatchOptions{}.validate());
}

}  // namespace
}  // namespace pimwfa
