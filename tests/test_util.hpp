// Shared helpers for the pimwfa test suite.
#pragma once

#include <gtest/gtest.h>

#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/batch_engine.hpp"
#include "align/penalties.hpp"
#include "common/rng.hpp"
#include "pim/host.hpp"
#include "seq/generator.hpp"

namespace pimwfa::testing {

// A random (pattern, text) pair where the text is the pattern mutated by
// `errors` random edits.
inline seq::ReadPair random_pair(Rng& rng, usize length, usize errors) {
  seq::ReadPair pair;
  pair.pattern = seq::random_sequence(rng, length);
  pair.text = seq::mutate_sequence(rng, pair.pattern, errors);
  return pair;
}

// A fully random (unrelated) pair, worst case for aligners.
inline seq::ReadPair unrelated_pair(Rng& rng, usize pattern_length,
                                    usize text_length) {
  return {seq::random_sequence(rng, pattern_length),
          seq::random_sequence(rng, text_length)};
}

// The pim backend's BatchOptions variants, labelled by their CLI flags:
// default, 2-bit packed transfers, and pipelined stages.
inline std::vector<std::pair<std::string, align::BatchOptions>> pim_variants(
    const align::BatchOptions& base) {
  align::BatchOptions packed = base;
  packed.pim_packed = true;
  align::BatchOptions pipelined = base;
  pipelined.pim_pipeline = true;
  return {{"pim", base},
          {"pim --packed", packed},
          {"pim --pipeline", pipelined}};
}

// One BatchEngine::submit as a future: get() returns the result or
// rethrows the batch's exception. `batch` must outlive the resolution.
inline std::future<align::BatchResult> submit_future(
    align::BatchEngine& engine, seq::ReadPairSpan batch,
    align::AlignmentScope scope) {
  auto promise = std::make_shared<std::promise<align::BatchResult>>();
  std::future<align::BatchResult> future = promise->get_future();
  engine.submit(batch, scope,
                [promise](align::BatchResult result, std::exception_ptr error) {
                  if (error) {
                    promise->set_exception(std::move(error));
                  } else {
                    promise->set_value(std::move(result));
                  }
                });
  return future;
}

// Backend whose run() blocks until open() for every batch `holds` selects
// (all of them by default) - holds batches (and their arenas and queue
// accounting) in flight so backpressure, ordering and teardown are
// observable. Scores each pair with its pattern length.
class GateBackend final : public align::BatchAligner {
 public:
  explicit GateBackend(std::function<bool(seq::ReadPairSpan)> holds = {})
      : holds_(std::move(holds)) {}

  align::BatchResult run(seq::ReadPairSpan batch, align::AlignmentScope,
                         ThreadPool*) override {
    {
      std::unique_lock lock(mutex_);
      ++entered_;
      cv_.notify_all();
      if (!holds_ || holds_(batch)) cv_.wait(lock, [this] { return open_; });
    }
    align::BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      out.results[i].score = static_cast<i64>(batch.pattern(i).size());
    }
    out.timings.pairs = batch.size();
    return out;
  }
  std::string name() const override { return "gate"; }

  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait_entered(usize n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  const std::function<bool(seq::ReadPairSpan)> holds_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  usize entered_ = 0;
};

// Every PimTimings field of `a` equals `b`'s, bit for bit.
inline void expect_same_timings(const pim::PimTimings& a,
                                const pim::PimTimings& b) {
  EXPECT_EQ(a.scatter_seconds, b.scatter_seconds);
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
  EXPECT_EQ(a.gather_seconds, b.gather_seconds);
  EXPECT_EQ(a.kernel_cycles_max, b.kernel_cycles_max);
  EXPECT_EQ(a.kernel_cycles_total, b.kernel_cycles_total);
  EXPECT_EQ(a.bytes_to_device, b.bytes_to_device);
  EXPECT_EQ(a.bytes_from_device, b.bytes_from_device);
  EXPECT_EQ(a.work.instructions, b.work.instructions);
  EXPECT_EQ(a.work.dma_calls, b.work.dma_calls);
  EXPECT_EQ(a.work.dma_bytes, b.work.dma_bytes);
  EXPECT_EQ(a.work.dma_cycles, b.work.dma_cycles);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.logical_dpus, b.logical_dpus);
  EXPECT_EQ(a.simulated_dpus, b.simulated_dpus);
  EXPECT_EQ(a.nr_tasklets, b.nr_tasklets);
  EXPECT_EQ(a.tiled_pairs, b.tiled_pairs);
  EXPECT_EQ(a.tile_segments, b.tile_segments);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.pipelined_total_seconds, b.pipelined_total_seconds);
  EXPECT_EQ(a.fill_seconds, b.fill_seconds);
  EXPECT_EQ(a.drain_seconds, b.drain_seconds);
  EXPECT_EQ(a.steady_state_seconds, b.steady_state_seconds);
  EXPECT_EQ(a.overlap_saved_seconds, b.overlap_saved_seconds);
}

// --- differential-testing support ---------------------------------------

// One cell of the length x error-rate x penalty sweep the differential
// suite cross-checks aligners over. The seed is derived from the cell so
// every configuration sees a distinct but reproducible workload.
struct DiffConfig {
  usize length = 100;
  double error_rate = 0.02;
  align::Penalties penalties = align::Penalties::defaults();
  u64 seed = 0;

  // gtest-safe name fragment: "len100_e2pct_x4o6e2".
  std::string name() const {
    return "len" + std::to_string(length) + "_e" +
           std::to_string(static_cast<int>(error_rate * 100 + 0.5)) +
           "pct_x" + std::to_string(penalties.mismatch) + "o" +
           std::to_string(penalties.gap_open) + "e" +
           std::to_string(penalties.gap_extend);
  }
};

inline std::ostream& operator<<(std::ostream& os, const DiffConfig& c) {
  return os << c.name();
}

// Derive a deterministic per-config seed so sweep cells don't share pairs.
inline u64 diff_seed(const DiffConfig& c) {
  u64 state = 0xD1FFu ^ (static_cast<u64>(c.length) << 32) ^
              static_cast<u64>(c.error_rate * 1e6) ^
              (static_cast<u64>(static_cast<u32>(c.penalties.mismatch)) << 48) ^
              (static_cast<u64>(static_cast<u32>(c.penalties.gap_open)) << 16) ^
              static_cast<u64>(static_cast<u32>(c.penalties.gap_extend));
  return splitmix64(state);
}

// The config's randomized workload: `pairs` mutated read pairs.
inline seq::ReadPairSet diff_batch(const DiffConfig& c, usize pairs) {
  seq::GeneratorConfig generator;
  generator.pairs = pairs;
  generator.read_length = c.length;
  generator.error_rate = c.error_rate;
  generator.seed = c.seed ? c.seed : diff_seed(c);
  return seq::generate_dataset(generator);
}

// Full cross product of the sweep axes.
inline std::vector<DiffConfig> diff_cross(
    const std::vector<usize>& lengths, const std::vector<double>& error_rates,
    const std::vector<align::Penalties>& penalty_sets) {
  std::vector<DiffConfig> configs;
  for (const usize length : lengths)
    for (const double error_rate : error_rates)
      for (const align::Penalties& penalties : penalty_sets)
        configs.push_back({length, error_rate, penalties, 0});
  return configs;
}

}  // namespace pimwfa::testing
