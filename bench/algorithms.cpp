// Ext-3: comparison against other alignment algorithms (google-benchmark).
// WFA vs Gotoh full/banded DP vs bit-parallel and banded edit distance,
// across error rates and lengths - the CPU-side counterpart of the
// paper's "comparing to PIM implementations of other alignment
// algorithms" future work.
#include <benchmark/benchmark.h>

#include "baselines/gotoh.hpp"
#include "baselines/myers.hpp"
#include "baselines/nw.hpp"
#include "seq/generator.hpp"
#include "wfa/wfa_aligner.hpp"

namespace {

using namespace pimwfa;

seq::ReadPairSet make_batch(usize length, double error_rate) {
  seq::GeneratorConfig config;
  config.pairs = 64;
  config.read_length = length;
  config.error_rate = error_rate;
  config.seed = 0xA16 + length;
  return seq::generate_dataset(config);
}

void report(benchmark::State& state, usize length) {
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 64);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 64 * 2 *
                          static_cast<i64>(length));
}

void BM_WfaFull(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const double error_rate = static_cast<double>(state.range(1)) / 100.0;
  const seq::ReadPairSet batch = make_batch(length, error_rate);
  wfa::WfaAligner aligner(align::Penalties::defaults());
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(
          aligner.align(pair.pattern, pair.text, align::AlignmentScope::kFull));
    }
  }
  report(state, length);
}
BENCHMARK(BM_WfaFull)
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({100, 10})
    ->Args({1000, 2});

void BM_WfaScoreOnly(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const double error_rate = static_cast<double>(state.range(1)) / 100.0;
  const seq::ReadPairSet batch = make_batch(length, error_rate);
  wfa::WfaAligner aligner(align::Penalties::defaults());
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(aligner.align(pair.pattern, pair.text,
                                             align::AlignmentScope::kScoreOnly));
    }
  }
  report(state, length);
}
BENCHMARK(BM_WfaScoreOnly)->Args({100, 2})->Args({100, 4})->Args({1000, 2});

void BM_GotohFull(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const double error_rate = static_cast<double>(state.range(1)) / 100.0;
  const seq::ReadPairSet batch = make_batch(length, error_rate);
  baselines::GotohAligner aligner(align::Penalties::defaults());
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(
          aligner.align(pair.pattern, pair.text, align::AlignmentScope::kFull));
    }
  }
  report(state, length);
}
BENCHMARK(BM_GotohFull)->Args({100, 2})->Args({100, 4});

void BM_GotohScoreOnly(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const double error_rate = static_cast<double>(state.range(1)) / 100.0;
  const seq::ReadPairSet batch = make_batch(length, error_rate);
  baselines::GotohAligner aligner(align::Penalties::defaults());
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(aligner.align(pair.pattern, pair.text,
                                             align::AlignmentScope::kScoreOnly));
    }
  }
  report(state, length);
}
BENCHMARK(BM_GotohScoreOnly)->Args({100, 2})->Args({1000, 2});

void BM_GotohBanded(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const double error_rate = static_cast<double>(state.range(1)) / 100.0;
  const seq::ReadPairSet batch = make_batch(length, error_rate);
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(baselines::gotoh_banded_score(
          pair.pattern, pair.text, align::Penalties::defaults(), 16));
    }
  }
  report(state, length);
}
BENCHMARK(BM_GotohBanded)->Args({100, 2})->Args({1000, 2});

void BM_MyersEditDistance(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const seq::ReadPairSet batch = make_batch(length, 0.04);
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(
          baselines::myers_edit_distance(pair.pattern, pair.text));
    }
  }
  report(state, length);
}
BENCHMARK(BM_MyersEditDistance)->Arg(100)->Arg(1000);

void BM_UkkonenEditDistance(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const seq::ReadPairSet batch = make_batch(length, 0.04);
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(
          baselines::ukkonen_edit_distance(pair.pattern, pair.text));
    }
  }
  report(state, length);
}
BENCHMARK(BM_UkkonenEditDistance)->Arg(100)->Arg(1000);

void BM_EditWfa(benchmark::State& state) {
  const usize length = static_cast<usize>(state.range(0));
  const seq::ReadPairSet batch = make_batch(length, 0.04);
  // Unit penalties (x=1, o=0, e=1): WFA computing the edit distance.
  wfa::WfaAligner aligner(align::Penalties::edit());
  for (auto _ : state) {
    for (const auto& pair : batch.pairs()) {
      benchmark::DoNotOptimize(aligner.align(pair.pattern, pair.text,
                                             align::AlignmentScope::kScoreOnly));
    }
  }
  report(state, length);
}
BENCHMARK(BM_EditWfa)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
