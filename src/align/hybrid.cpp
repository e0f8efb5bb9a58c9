// Sits conceptually above the cpu/ and pim/ layers (see the layer note in
// src/CMakeLists.txt): this is the one align/ component that composes the
// concrete backends instead of defining vocabulary for them.
#include "align/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "cpu/cpu_batch.hpp"
#include "cpu/scaling_model.hpp"
#include "cpu/simd/simd.hpp"
#include "pim/host.hpp"

namespace pimwfa::align {

HybridBatchAligner::HybridBatchAligner(BatchOptions options)
    : options_(std::move(options)) {
  options_.validate();
  cpu_ = std::make_unique<cpu::CpuBatchAligner>(options_);
  pim_ = std::make_unique<pim::PimBatchAligner>(options_);
}

HybridBatchAligner::~HybridBatchAligner() = default;

HybridBatchAligner::Calibration HybridBatchAligner::calibrate(
    seq::ReadPairSpan batch, AlignmentScope scope, ThreadPool* pool,
    usize pairs) const {
  Calibration out;
  const usize materialized = batch.size();
  const double forced = options_.hybrid_cpu_fraction;
  const cpu::CpuSystemModel cpu_system{};
  const double n = static_cast<double>(pairs);

  // --- CPU side: per-pair cost on one paper core + roofline projection --
  if (forced != 0.0) {
    const usize sample_pairs = std::min(materialized, kCalibrationPairs);
    // plan() rejects an empty materialized batch, but the division below
    // turns a zero into a NaN per-pair cost and a garbage split, so fail
    // loudly here too rather than trust every entry path forever.
    PIMWFA_ARG_CHECK(sample_pairs >= 1,
                     "hybrid CPU calibration needs at least one sample pair "
                     "(materialized=" << materialized << ")");
    // With the SIMD backend on the CPU side, price its effect from work
    // counters (deterministic): the speedup scales the per-pair override,
    // and the fast-path fraction shrinks the modeled traffic floor -
    // which is what actually moves the split, the scalar CPU side being
    // bandwidth-bound on the paper's machine.
    double traffic_per_pair = -1.0;
    double metadata_per_pair = 0;
    if (options_.cpu_per_pair_seconds > 0) {
      double speedup = 1.0;
      if (options_.cpu_simd) {
        const cpu::simd::SpeedupModel model = cpu::simd::model_sample(
            batch.first(sample_pairs), options_.penalties, scope,
            cpu::simd::FastPathConfig{}, cpu::simd::active_level());
        speedup = model.speedup;
        traffic_per_pair = model.traffic_bytes_per_pair;
      }
      out.cpu_per_pair_seconds = options_.cpu_per_pair_seconds / speedup;
    } else {
      cpu::CpuBatchOptions calibration_options =
          cpu::CpuBatchOptions::from(options_);
      calibration_options.threads = 1;
      const cpu::CpuBatchAligner calibrator(calibration_options);
      const cpu::CpuBatchResult measured =
          calibrator.align_batch(batch.first(sample_pairs), scope);
      const double per_pair_host =
          measured.seconds / static_cast<double>(sample_pairs);
      // A SIMD calibrator measures the SIMD loop, so the speedup is
      // already in the sample; never divide it in twice. Its fast-path
      // counters (same level and edit threshold as the CPU share) price
      // the traffic floor.
      out.cpu_per_pair_seconds = per_pair_host * cpu_system.host_core_ratio;
      metadata_per_pair = static_cast<double>(measured.work.allocated_bytes) /
                          static_cast<double>(sample_pairs);
      if (options_.cpu_simd) {
        traffic_per_pair = cpu::simd::traffic_bytes_per_pair(measured.simd);
      }
    }
    const u64 metadata_bytes = static_cast<u64>(metadata_per_pair * n);
    out.cpu_traffic_bytes =
        traffic_per_pair >= 0
            ? traffic_per_pair * n
            : cpu::estimate_batch_traffic(pairs, metadata_bytes);
    out.cpu_alone_seconds = cpu::project_batch_seconds_traffic(
        cpu_system, out.cpu_per_pair_seconds * n, out.cpu_traffic_bytes);
  }

  // --- PIM side: simulate one DPU's share, model the full system -------
  // Only needed to *derive* the split; a forced fraction skips the probe
  // (pim_alone_seconds then stays 0 in the plan and timings).
  if (forced < 0) {
    pim::PimOptions probe = pim::PimOptions::from(options_);
    probe.virtual_total_pairs = pairs;
    if (pim::PimBatchAligner(probe).needs_tiling(batch, scope)) {
      // Long pairs tile across every DPU, so the virtual-prefix /
      // single-simulated-DPU probe below cannot represent the run (and
      // the tiled path rejects it). Price the split from a small fully
      // simulated slice of the system instead, scaled by the pair count
      // and the DPU-count ratio: segments spread round-robin, so PIM
      // time is ~inversely proportional to DPU count.
      const usize sample_pairs = std::min(materialized, kCalibrationPairs);
      pim::PimOptions tiled_probe = probe;
      tiled_probe.virtual_total_pairs = 0;
      const usize probe_dpus = std::min<usize>(probe.system.nr_dpus(), 4);
      tiled_probe.system = upmem::SystemConfig::tiny(probe_dpus);
      pim::PimBatchAligner prober(tiled_probe);
      const double sample_seconds =
          prober.align_batch(batch.first(sample_pairs), scope, pool)
              .timings.total_seconds();
      out.pim_alone_seconds =
          sample_seconds * (n / static_cast<double>(sample_pairs)) *
          (static_cast<double>(probe_dpus) /
           static_cast<double>(probe.system.nr_dpus()));
    } else {
      probe.simulate_dpus = 1;
      const usize share0 =
          pim::PimBatchAligner::dpu_pair_range(pairs,
                                               probe.system.nr_dpus(), 0)
              .second;
      PIMWFA_ARG_CHECK(materialized >= share0,
                       "hybrid PIM probe needs the first DPU's share ("
                           << share0 << " pairs) materialized");
      pim::PimBatchAligner prober(probe);
      out.pim_alone_seconds =
          prober.align_batch(batch.subspan(0, share0), scope, pool)
              .timings.total_seconds();
    }
  }
  return out;
}

HybridBatchAligner::Plan HybridBatchAligner::plan(seq::ReadPairSpan batch,
                                                  AlignmentScope scope,
                                                  ThreadPool* pool,
                                                  usize modeled_pairs) const {
  // Validate the borrow before keying the calibration cache on the
  // batch's shape (checked builds): the probe sub-spans carved below
  // inherit this span's borrow and re-validate on their own accesses.
  batch.check_valid();
  Plan out;
  const usize materialized = batch.size();
  out.pairs = modeled_pairs != 0 ? std::max(modeled_pairs, materialized)
                                 : materialized;
  if (out.pairs == 0) return out;
  PIMWFA_ARG_CHECK(materialized > 0,
                   "hybrid calibration needs materialized pairs");

  // Serve the calibration from the per-instance cache; a miss computes it
  // while holding the lock so concurrent same-configuration runs probe
  // exactly once (the second thread blocks, then reads the entry). This
  // also serializes first-time misses of *different* configurations - a
  // deliberate trade: probes are small, and per-key synchronization is
  // not worth its complexity until a profile says otherwise.
  Calibration calibration;
  {
    const CalibrationKey key{out.pairs, materialized,
                             batch.max_pattern_length(),
                             batch.max_text_length(), scope};
    MutexLock lock(cache_mutex_);
    const auto hit = cache_.find(key);
    if (hit != cache_.end()) {
      calibration = hit->second;
    } else {
      calibration = calibrate(batch, scope, pool, out.pairs);
      calibrations_.fetch_add(1, std::memory_order_relaxed);
      cache_.emplace(key, calibration);
    }
  }
  out.cpu_alone_seconds = calibration.cpu_alone_seconds;
  out.pim_alone_seconds = calibration.pim_alone_seconds;
  out.cpu_per_pair_seconds = calibration.cpu_per_pair_seconds;
  out.cpu_traffic_bytes = calibration.cpu_traffic_bytes;

  // --- split proportional to modeled throughput -------------------------
  const double forced = options_.hybrid_cpu_fraction;
  const double n = static_cast<double>(out.pairs);
  if (forced >= 0) {
    out.cpu_fraction = forced;
  } else {
    const double denom = out.cpu_alone_seconds + out.pim_alone_seconds;
    out.cpu_fraction = denom > 0 ? out.pim_alone_seconds / denom : 0.0;
  }
  out.cpu_pairs = std::min(
      out.pairs, static_cast<usize>(std::llround(out.cpu_fraction * n)));
  out.pim_pairs = out.pairs - out.cpu_pairs;
  out.cpu_fraction = static_cast<double>(out.cpu_pairs) / n;
  return out;
}

BatchResult HybridBatchAligner::run(seq::ReadPairSpan batch,
                                    AlignmentScope scope, ThreadPool* pool) {
  WallTimer timer;
  const u64 copied_before =
      seq::bases_copied_counter().load(std::memory_order_relaxed);
  BatchResult out;
  out.backend = name();
  const usize n = batch.size();
  if (n == 0) return out;

  const Plan split = plan(batch, scope, pool);
  BatchTimings& t = out.timings;
  t.pairs = split.pairs;
  t.cpu_pairs = split.cpu_pairs;
  t.pim_pairs = split.pim_pairs;
  t.cpu_fraction = split.cpu_fraction;
  t.cpu_alone_seconds = split.cpu_alone_seconds;
  t.pim_alone_seconds = split.pim_alone_seconds;

  // --- PIM share: the prefix [0, pim_pairs) -----------------------------
  if (split.pim_pairs > 0) {
    pim::PimBatchResult pim_result =
        pim_->align_batch(batch.first(split.pim_pairs), scope, pool);
    const pim::PimTimings& pt = pim_result.timings;
    t.pim_modeled_seconds = pt.total_seconds();
    t.scatter_seconds = pt.scatter_seconds;
    t.kernel_seconds = pt.kernel_seconds;
    t.gather_seconds = pt.gather_seconds;
    t.bytes_to_device = pt.bytes_to_device;
    t.bytes_from_device = pt.bytes_from_device;
    t.pipeline_chunks = pt.chunks;
    out.results = std::move(pim_result.results);
  }

  // --- CPU share: the suffix [pim_pairs, n) -----------------------------
  if (split.cpu_pairs > 0) {
    // Modeled share time scales linearly out of the calibrated alone-time
    // (the roofline is the max of two terms linear in the pair count).
    t.cpu_modeled_seconds = split.cpu_alone_seconds *
                            static_cast<double>(split.cpu_pairs) /
                            static_cast<double>(split.pairs);
    cpu::CpuBatchResult cpu_result =
        cpu_->align_batch(batch.subspan(split.pim_pairs, n), scope, pool);
    t.cpu_wall_seconds = cpu_result.seconds;
    out.results.insert(out.results.end(),
                       std::make_move_iterator(cpu_result.results.begin()),
                       std::make_move_iterator(cpu_result.results.end()));
  }

  t.modeled_seconds = std::max(t.cpu_modeled_seconds, t.pim_modeled_seconds);
  t.bases_copied =
      seq::bases_copied_counter().load(std::memory_order_relaxed) -
      copied_before;
  t.wall_seconds = timer.seconds();
  return out;
}

}  // namespace pimwfa::align
