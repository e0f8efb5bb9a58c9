// Concurrency stress suite, written for ThreadSanitizer.
//
// Every test here hammers one of the shared structures of the library
// from several threads at once: BatchEngine's dispatcher counters and
// shared worker pool, AlignService's admission/batcher protocol and the
// batch completions that run on the engine's dispatcher threads against
// its fixed arena ring, the hybrid dispatcher's calibration
// cache, the paged MRAM's lock-free page installation, the
// PimBatchAligner's pool of simulated systems and its tiling planner's
// parallel levels on a shared worker pool. The
// assertions are deliberately about *totals and determinism*, not
// interleavings - the point of the suite is the instrumented run: the
// TSan CI job (-DPIMWFA_SANITIZE=thread) executes it and fails on any
// data race or lock-order inversion, whatever the schedule. It runs
// under the plain tier-1 job too, where it doubles as a functional
// multi-producer regression test.
//
// Sizes are tuned small: TSan serializes heavily and CI cores are few,
// so each test keeps total work in the tens of milliseconds uninstrumented.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "align/service.hpp"
#include "common/thread_pool.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "test_util.hpp"
#include "upmem/mram.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::AlignService;
using align::BatchOptions;
using align::BatchResult;
using align::RequestHandle;
using align::ServiceOptions;
using align::ServiceStats;
using seq::ReadPairSet;
using seq::ReadPairSpan;

ReadPairSet stress_batch(usize pairs, u64 seed) {
  seq::GeneratorConfig config;
  config.pairs = pairs;
  config.read_length = 48;
  config.error_rate = 0.05;
  config.seed = seed;
  return seq::generate_dataset(config);
}

// --- BatchEngine: concurrent submitters ----------------------------------

TEST(RaceStress, EngineConcurrentSubmit) {
  constexpr usize kProducers = 3;
  constexpr usize kSubmitsPerProducer = 4;

  BatchOptions options;
  options.cpu_threads = 2;
  align::BatchEngine engine(align::backend_registry().create("cpu", options),
                            /*max_in_flight=*/3, /*workers=*/2);

  // Every producer borrows its own set; all sets are built (and the
  // reference results computed) before any thread starts, and outlive
  // the join - the spans below never dangle.
  std::vector<ReadPairSet> batches;
  std::vector<BatchResult> expected;
  for (usize t = 0; t < kProducers; ++t) {
    batches.push_back(stress_batch(24 + 8 * t, 0xE1 + t));
    expected.push_back(testing::submit_future(engine, ReadPairSpan(batches[t]),
                                              AlignmentScope::kFull)
                           .get());
  }

  // The producers race for the dispatcher slots, the shared worker pool
  // and the in-flight counter.
  std::vector<BatchResult> produced(kProducers * kSubmitsPerProducer);
  std::vector<std::thread> threads;
  for (usize t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      for (usize r = 0; r < kSubmitsPerProducer; ++r) {
        produced[t * kSubmitsPerProducer + r] =
            testing::submit_future(engine, ReadPairSpan(batches[t]),
                                   AlignmentScope::kFull)
                .get();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);

  for (usize t = 0; t < kProducers; ++t) {
    for (usize r = 0; r < kSubmitsPerProducer; ++r) {
      const BatchResult& got = produced[t * kSubmitsPerProducer + r];
      ASSERT_EQ(got.results.size(), expected[t].results.size());
      for (usize p = 0; p < got.results.size(); ++p) {
        ASSERT_EQ(got.results[p], expected[t].results[p])
            << "producer " << t << " run " << r << " pair " << p;
      }
    }
  }
}

// --- AlignService: multi-producer admission vs the arena ring -------------

// Deterministic backend with enough latency to keep batches (and their
// arenas) genuinely in flight while producers keep admitting. The delay
// lives here in the test, not in src/ (tools/lint_invariants.py bans
// sleeps in the library).
class SlowScoreBackend final : public align::BatchAligner {
 public:
  BatchResult run(seq::ReadPairSpan batch, AlignmentScope,
                  ThreadPool*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      out.results[i].score = static_cast<i64>(batch.pattern(i).size());
    }
    out.timings.pairs = batch.size();
    return out;
  }
  std::string name() const override { return "slow-score"; }
};

TEST(RaceStress, ServiceMultiProducerSubmitCancelDeadline) {
  constexpr usize kProducers = 4;
  constexpr usize kRequestsPerProducer = 24;
  constexpr usize kPairsPerRequest = 2;

  ServiceOptions options;
  options.max_batch_pairs = 8;
  options.max_batch_delay = std::chrono::milliseconds(1);
  options.max_queued_pairs = 32;  // real backpressure under 4 producers
  // One batch in flight: a two-arena ring, recycled hard.
  options.engine.max_in_flight = 1;
  options.engine.workers = 0;
  AlignService service(std::make_unique<SlowScoreBackend>(), options);

  // Per-thread outcome tallies, merged after the join.
  std::atomic<usize> ok{0}, cancelled{0}, expired{0}, rejected{0};
  std::vector<std::thread> producers;
  for (usize t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (usize r = 0; r < kRequestsPerProducer; ++r) {
        std::vector<seq::ReadPair> pairs(
            kPairsPerRequest,
            {std::string(8 + t, 'A'), std::string(8 + t, 'A')});
        const usize variant = (t + r) % 4;
        std::optional<RequestHandle> handle;
        if (variant == 0) {
          // Non-blocking admission racing the watermark.
          handle = service.try_submit(std::move(pairs));
          if (!handle) {
            rejected.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        } else if (variant == 1) {
          // A deadline tight enough that some (not all) runs miss it.
          handle = service.submit_wait(
              std::move(pairs),
              std::chrono::steady_clock::now() +
                  std::chrono::microseconds(300));
        } else {
          handle = service.submit_wait(std::move(pairs));
        }
        if (variant == 2) (void)handle->cancel();
        try {
          const auto results = handle->get();
          ASSERT_EQ(results.size(), kPairsPerRequest);
          for (const auto& result : results) {
            EXPECT_EQ(result.score, static_cast<i64>(8 + t));
          }
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const align::RequestCancelled&) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        } catch (const align::DeadlineExpired&) {
          expired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.drain();

  const ServiceStats stats = service.stats();
  const usize total = kProducers * kRequestsPerProducer;
  // Every request is accounted exactly once, across all interleavings.
  EXPECT_EQ(stats.submitted + stats.rejected, total);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.expired + stats.failed);
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.cancelled, cancelled.load());
  EXPECT_EQ(stats.expired, expired.load());
  EXPECT_EQ(stats.failed, 0u);
  // The ring bound held: two arenas of 8 pairs each.
  EXPECT_LE(stats.peak_resident_pairs, 2 * options.max_batch_pairs);
  EXPECT_LE(stats.peak_queued_pairs, options.max_queued_pairs);
}

// --- hybrid dispatcher: concurrent calibration-cache misses ---------------

TEST(RaceStress, HybridConcurrentDistinctShapeMisses) {
  constexpr usize kShapes = 4;
  constexpr usize kRunsPerShape = 3;

  BatchOptions options;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_threads = 2;
  // Deterministic CPU model so every thread's plan depends only on its
  // batch shape (and cached replays are exact).
  options.cpu_per_pair_seconds = 5e-6;
  align::HybridBatchAligner hybrid(options);

  // Distinct pair counts = distinct cache keys: every thread's first run
  // is a miss, and all the misses race each other on the one cache.
  std::vector<ReadPairSet> batches;
  for (usize s = 0; s < kShapes; ++s) {
    batches.push_back(stress_batch(40 + 8 * s, 0xCA11 + s));
  }

  std::vector<std::vector<BatchResult>> results(kShapes);
  std::vector<std::thread> threads;
  for (usize s = 0; s < kShapes; ++s) {
    threads.emplace_back([&, s] {
      for (usize r = 0; r < kRunsPerShape; ++r) {
        results[s].push_back(
            hybrid.run(ReadPairSpan(batches[s]), AlignmentScope::kFull));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly one probe per shape, however the misses interleaved; a
  // duplicated probe means the miss path raced itself, a lost one means
  // a cached entry was served before its calibration was complete.
  EXPECT_EQ(hybrid.calibrations_performed(), kShapes);
  for (usize s = 0; s < kShapes; ++s) {
    ASSERT_EQ(results[s].size(), kRunsPerShape);
    for (usize r = 1; r < kRunsPerShape; ++r) {
      ASSERT_EQ(results[s][r].results.size(), results[s][0].results.size());
      for (usize p = 0; p < results[s][0].results.size(); ++p) {
        ASSERT_EQ(results[s][r].results[p], results[s][0].results[p])
            << "shape " << s << " run " << r << " pair " << p;
      }
      EXPECT_EQ(results[s][r].timings.cpu_fraction,
                results[s][0].timings.cpu_fraction)
          << "a cached calibration must replay the exact split";
    }
  }
}

// --- paged MRAM: concurrent first touch of shared pages -------------------

TEST(RaceStress, MramConcurrentFirstTouchOfSharedPages) {
  constexpr usize kWriters = 4;
  constexpr usize kReaders = 2;
  constexpr usize kPages = 8;
  constexpr usize kRounds = 16;  // slots per writer per page
  using upmem::Mram;
  Mram mram(64ull << 20);

  // Writer w owns 8-byte slot r * kWriters + w of every page, and all
  // writers sweep the pages in the same order, so each page's first
  // touch is contended by every writer. Pages sit 5 pages apart.
  const auto slot_addr = [](usize page, usize round, usize writer) {
    return static_cast<u64>(page) * 5 * Mram::kPageBytes +
           8 * static_cast<u64>(round * kWriters + writer);
  };
  const auto slot_value = [](usize page, usize round, usize writer) {
    return (static_cast<u64>(page) << 32) | (static_cast<u64>(round) << 16) |
           (static_cast<u64>(writer) + 1);
  };
  // Slots writer w has finished, in sweep order (round-major, then page).
  // The release store after each write lets readers check it race-free.
  std::vector<std::atomic<usize>> published(kWriters);
  std::atomic<usize> writers_done{0};
  std::atomic<usize> mismatches{0};
  std::latch start(kWriters + kReaders);

  std::vector<std::thread> threads;
  for (usize w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (usize r = 0; r < kRounds; ++r) {
        for (usize p = 0; p < kPages; ++p) {
          mram.write_pod<u64>(slot_addr(p, r, w), slot_value(p, r, w));
          published[w].fetch_add(1, std::memory_order_release);
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (usize reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writers_done.load(std::memory_order_acquire) == kWriters;
        for (usize w = 0; w < kWriters; ++w) {
          const usize n = published[w].load(std::memory_order_acquire);
          for (usize i = 0; i < n; ++i) {
            const usize r = i / kPages;
            const usize p = i % kPages;
            const u64 value = mram.read_pod<u64>(slot_addr(p, r, w));
            if (value != slot_value(p, r, w)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  for (usize p = 0; p < kPages; ++p) {
    for (usize r = 0; r < kRounds; ++r) {
      for (usize w = 0; w < kWriters; ++w) {
        ASSERT_EQ(mram.read_pod<u64>(slot_addr(p, r, w)),
                  slot_value(p, r, w))
            << "page " << p << " round " << r << " writer " << w;
      }
    }
  }
  // Losing installers freed their copies: each page counts once.
  EXPECT_EQ(mram.touched(), kPages * Mram::kPageBytes);
}

// --- PimBatchAligner: concurrent calls sharing the system pool ------------

TEST(RaceStress, PimAlignerConcurrentCallsMatchFreshAligners) {
  constexpr usize kThreads = 4;
  constexpr usize kRounds = 3;
  pim::PimOptions options;
  options.system = upmem::SystemConfig::tiny(2);
  options.nr_tasklets = 4;

  // Different lengths and scopes per batch; references come from a fresh
  // aligner each, computed before any thread starts.
  std::vector<ReadPairSet> batches;
  std::vector<AlignmentScope> scopes;
  std::vector<pim::PimBatchResult> expected;
  for (usize b = 0; b < kThreads; ++b) {
    seq::GeneratorConfig config;
    config.pairs = 10 + 4 * b;
    config.read_length = 40 + 40 * b;
    config.error_rate = 0.05;
    config.seed = 0x9001 + b;
    batches.push_back(seq::generate_dataset(config));
    scopes.push_back(b % 2 == 0 ? AlignmentScope::kFull
                                : AlignmentScope::kScoreOnly);
    expected.push_back(
        pim::PimBatchAligner(options).align_batch(batches[b], scopes[b]));
  }

  // Thread t runs batch (t + r) % kThreads in round r, so recycled systems
  // see every shape after every other.
  pim::PimBatchAligner shared(options);
  std::vector<std::vector<pim::PimBatchResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (usize r = 0; r < kRounds; ++r) {
        const usize b = (t + r) % kThreads;
        got[t].push_back(shared.align_batch(batches[b], scopes[b]));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (usize t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds);
    for (usize r = 0; r < kRounds; ++r) {
      const usize b = (t + r) % kThreads;
      const pim::PimBatchResult& run = got[t][r];
      EXPECT_EQ(run.results, expected[b].results)
          << "thread " << t << " round " << r;
      EXPECT_EQ(run.timings.kernel_cycles_total,
                expected[b].timings.kernel_cycles_total);
      EXPECT_EQ(run.timings.bytes_to_device,
                expected[b].timings.bytes_to_device);
      EXPECT_EQ(run.timings.bytes_from_device,
                expected[b].timings.bytes_from_device);
    }
  }
}

// --- PimBatchAligner: concurrent tiled calls on one shared pool ----------

TEST(RaceStress, PimTiledCallsShareOnePoolAndMatchSerialRuns) {
  constexpr usize kThreads = 3;
  constexpr usize kRounds = 2;
  pim::PimOptions options;
  options.system = upmem::SystemConfig::tiny(2);
  options.nr_tasklets = 4;
  options.tile_max_segment_bases = 256;

  // Every batch tiles: one or two long pairs next to a short one. The
  // references are serial runs (no pool), computed before any thread
  // starts.
  std::vector<ReadPairSet> batches;
  std::vector<pim::PimBatchResult> expected;
  for (usize b = 0; b < kThreads; ++b) {
    Rng rng(0x7110 + b);
    ReadPairSet batch;
    batch.add(pimwfa::testing::random_pair(rng, 600 + 200 * b, 12));
    batch.add(pimwfa::testing::random_pair(rng, 60, 2));
    if (b % 2 == 0) batch.add(pimwfa::testing::random_pair(rng, 500, 20));
    batches.push_back(std::move(batch));
    expected.push_back(pim::PimBatchAligner(options).align_batch(
        batches[b], AlignmentScope::kFull));
    ASSERT_GE(expected[b].timings.tiled_pairs, 1u);
  }

  // Thread t runs batch (t + r) % kThreads in round r; every call plans
  // its tiles and runs its DPUs on the one pool.
  pim::PimBatchAligner shared(options);
  ThreadPool pool(3);
  std::vector<std::vector<pim::PimBatchResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (usize r = 0; r < kRounds; ++r) {
        const usize b = (t + r) % kThreads;
        got[t].push_back(
            shared.align_batch(batches[b], AlignmentScope::kFull, &pool));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (usize t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds);
    for (usize r = 0; r < kRounds; ++r) {
      const usize b = (t + r) % kThreads;
      const pim::PimBatchResult& run = got[t][r];
      EXPECT_EQ(run.results, expected[b].results)
          << "thread " << t << " round " << r;
      EXPECT_EQ(run.timings.tile_segments, expected[b].timings.tile_segments);
      EXPECT_EQ(run.timings.kernel_cycles_total,
                expected[b].timings.kernel_cycles_total);
    }
  }
}

}  // namespace
}  // namespace pimwfa
