#include "cpu/cpu_batch.hpp"

#include <algorithm>
#include <thread>

#include "common/check.hpp"
#include "common/thread_safety.hpp"
#include "common/timer.hpp"
#include "cpu/scaling_model.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::cpu {

CpuBatchOptions CpuBatchOptions::from(const align::BatchOptions& batch) {
  CpuBatchOptions options;
  options.penalties = batch.penalties;
  options.threads =
      batch.cpu_threads != 0
          ? batch.cpu_threads
          : std::max<usize>(std::thread::hardware_concurrency(), 1);
  options.simd = batch.cpu_simd;
  options.memory_mode = batch.memory_mode;
  return options;
}

namespace {

wfa::WfaAligner::MemoryMode to_wfa_mode(align::MemoryMode mode) {
  switch (mode) {
    case align::MemoryMode::kLow:
      return wfa::WfaAligner::MemoryMode::kLow;
    case align::MemoryMode::kUltralow:
      return wfa::WfaAligner::MemoryMode::kUltralow;
    default:
      return wfa::WfaAligner::MemoryMode::kHigh;
  }
}

}  // namespace

CpuBatchAligner::CpuBatchAligner(CpuBatchOptions options)
    : options_(options) {
  options_.penalties.validate();
  PIMWFA_ARG_CHECK(options_.threads >= 1, "need at least one thread");
  // Resolve dispatch once, up front: a bad PIMWFA_FORCE_SIMD value fails
  // at construction, not mid-batch on a worker thread.
  if (options_.simd) simd_level_ = simd::active_level();
}

CpuBatchAligner::CpuBatchAligner(const align::BatchOptions& batch)
    : CpuBatchAligner(CpuBatchOptions::from(batch)) {
  per_pair_seconds_override_ = batch.cpu_per_pair_seconds;
}

CpuBatchResult CpuBatchAligner::align_batch(seq::ReadPairSpan batch,
                                            align::AlignmentScope scope,
                                            ThreadPool* pool) const {
  // Validate the borrow once up front (checked builds) so a stale span
  // fails with its origin before any worker threads start; per-element
  // accesses re-validate as the workers run.
  batch.check_valid();
  CpuBatchResult out;
  out.results.resize(batch.size());
  Mutex merge_mutex;

  auto worker = [&](usize begin, usize end) {
    if (options_.simd) {
      simd::SimdStats stats;
      wfa::WfaCounters work;
      u64 high_water = 0;
      simd::align_range(batch, begin, end, options_.penalties, scope,
                        simd_level_, simd::FastPathConfig{}, out.results,
                        stats, work, high_water,
                        to_wfa_mode(options_.memory_mode));
      MutexLock lock(merge_mutex);
      out.work.merge(work);
      out.simd.merge(stats);
      out.allocator_high_water =
          std::max(out.allocator_high_water, high_water);
      return;
    }
    wfa::WfaAligner::Options wfa_options;
    wfa_options.penalties = options_.penalties;
    wfa_options.memory_mode = to_wfa_mode(options_.memory_mode);
    wfa::WfaAligner aligner{wfa_options};
    for (usize i = begin; i < end; ++i) {
      out.results[i] = aligner.align(batch.pattern(i), batch.text(i), scope);
    }
    MutexLock lock(merge_mutex);
    out.work.merge(aligner.counters());
    out.allocator_high_water =
        std::max(out.allocator_high_water, aligner.allocator().high_water());
  };

  WallTimer timer;
  if (pool != nullptr) {
    pool->parallel_for(batch.size(), worker);
  } else if (options_.threads == 1) {
    worker(0, batch.size());
  } else {
    ThreadPool local(options_.threads);
    local.parallel_for(batch.size(), worker);
  }
  out.seconds = timer.seconds();
  return out;
}

align::BatchResult CpuBatchAligner::run(seq::ReadPairSpan batch,
                                        align::AlignmentScope scope,
                                        ThreadPool* pool) {
  WallTimer timer;
  CpuBatchResult native = align_batch(batch, scope, pool);
  const usize pairs = batch.size();

  align::BatchResult out;
  out.backend = name();
  out.results = std::move(native.results);
  align::BatchTimings& t = out.timings;
  t.cpu_wall_seconds = native.seconds;
  t.pairs = pairs;
  t.cpu_pairs = pairs;
  t.cpu_fraction = 1.0;
  t.peak_wavefront_bytes = native.work.peak_wavefront_bytes;
  if (pairs == 0) {
    t.wall_seconds = timer.seconds();
    return out;
  }

  // Roofline projection onto the modeled server. Single-thread cost comes
  // from the calibration override when given (deterministic, used by CI);
  // otherwise the measured wall time is rescaled assuming the host worker
  // threads scaled linearly - exact at threads == 1, the configuration
  // the calibrating callers (fig1, hybrid) use.
  const CpuSystemModel system{};
  const usize threads_used =
      pool != nullptr ? std::max<usize>(pool->size(), 1) : options_.threads;
  const double t1_model =
      per_pair_seconds_override_ > 0
          ? per_pair_seconds_override_ * static_cast<double>(pairs)
          : native.seconds *
                static_cast<double>(std::min(threads_used, pairs)) *
                system.host_core_ratio;
  const u64 metadata_bytes =
      per_pair_seconds_override_ > 0 ? 0 : native.work.allocated_bytes;
  if (options_.simd) {
    // SIMD projection: fast-path pairs never touch the wavefront arena,
    // so the traffic floor is priced from this batch's own fast-path
    // counters. Measured t1 already includes the SIMD effects; only the
    // calibrated (scalar) override needs the modeled speedup divided in,
    // which costs model_sample's two extra alignments of a sample.
    double t1_simd = t1_model;
    if (per_pair_seconds_override_ > 0) {
      const simd::SpeedupModel model = simd::model_sample(
          batch.first(std::min<usize>(pairs, 128)), options_.penalties,
          scope, simd::FastPathConfig{}, simd_level_);
      t1_simd = t1_model / model.speedup;
    }
    t.modeled_seconds = project_batch_seconds_traffic(
        system, t1_simd,
        simd::traffic_bytes_per_pair(native.simd) *
            static_cast<double>(pairs));
  } else {
    t.modeled_seconds =
        project_batch_seconds(system, t1_model, pairs, metadata_bytes);
  }
  t.cpu_modeled_seconds = t.modeled_seconds;
  t.cpu_alone_seconds = t.modeled_seconds;
  t.wall_seconds = timer.seconds();
  return out;
}

}  // namespace pimwfa::cpu
