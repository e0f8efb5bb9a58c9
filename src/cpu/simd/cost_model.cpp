// Deterministic cost model of the SIMD layer.
//
// The CI perf gate needs a simd-vs-scalar throughput ratio that is
// stable across runner hardware and load, so the model prices *work
// counters* (deterministic for a given batch), never wall time: the
// sample is aligned once with scalar kernels (full WFA on every pair)
// and once through align_range at the requested level, and both runs are
// costed in scalar unit-operations with fixed per-level efficiencies.
// The constants below are calibrated against measured single-thread
// speedups on AVX2 hosts (bench/simd.cpp reports both numbers side by
// side so drift is visible).
#include <algorithm>

#include "common/check.hpp"
#include "cpu/simd/simd.hpp"
#include "cpu/scaling_model.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::cpu::simd {

namespace {

// Scalar unit-operations per unit of counted work.
constexpr double kUnitsPerCell = 1.0;        // one recurrence cell
constexpr double kUnitsPerMatchByte = 1.0;   // one extend comparison
constexpr double kUnitsPerProbe = 2.0;       // extend loop setup/teardown
constexpr double kUnitsPerPair = 60.0;       // dispatch, result handling

// Effective speedup of the vectorized recurrence (8 lanes, minus the
// scalar head/tail and the blend overhead) and of the block compares
// (32 bytes per step, discounted for short runs).
struct LevelCosts {
  double cell_lanes;
  double bytes_per_step;
};

LevelCosts level_costs(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return {6.0, 16.0};
    case SimdLevel::kScalar:
      break;
  }
  return {1.0, 1.0};
}

double wfa_units(const wfa::WfaCounters& work, const LevelCosts& costs) {
  return kUnitsPerCell * static_cast<double>(work.computed_cells) /
             costs.cell_lanes +
         kUnitsPerMatchByte * static_cast<double>(work.extend_matches) /
             costs.bytes_per_step +
         kUnitsPerProbe * static_cast<double>(work.extend_probes);
}

// Modeled DRAM traffic of a pair resolved by a fast path: its sequence
// bytes plus a small result/bookkeeping footprint - no wavefront arena
// is touched, which is what shrinks the roofline's bandwidth floor and
// moves the hybrid split toward the CPU.
constexpr double kFastPathFixedTrafficBytes = 300.0;

}  // namespace

double traffic_bytes_per_pair(const SimdStats& stats) {
  PIMWFA_ARG_CHECK(stats.pairs > 0, "SIMD traffic model needs a pair");
  const double n = static_cast<double>(stats.pairs);
  const TrafficModel traffic{};
  const double fast = static_cast<double>(stats.fast_path_pairs());
  const double fast_traffic =
      static_cast<double>(stats.fast_path_bases) +
      fast * kFastPathFixedTrafficBytes;
  return ((n - fast) * traffic.per_pair_fixed_bytes + fast_traffic) / n;
}

SpeedupModel model_sample(seq::ReadPairSpan sample,
                          const align::Penalties& penalties,
                          align::AlignmentScope scope,
                          const FastPathConfig& config, SimdLevel level) {
  PIMWFA_ARG_CHECK(!sample.empty(), "SIMD cost model needs a sample pair");
  const double n = static_cast<double>(sample.size());

  // Scalar reference: full WFA on every pair with the portable kernels.
  wfa::WfaAligner scalar_reference{wfa::WfaAligner::Options{penalties}};
  for (usize i = 0; i < sample.size(); ++i) {
    (void)scalar_reference.align(sample.pattern(i), sample.text(i), scope);
  }
  const wfa::WfaCounters& scalar_work = scalar_reference.counters();

  // SIMD run: fast paths absorb what they can, the rest is counted by
  // the fallback aligner.
  std::vector<align::AlignmentResult> results(sample.size());
  SimdStats stats;
  wfa::WfaCounters simd_work;
  u64 high_water = 0;
  align_range(sample, 0, sample.size(), penalties, scope, level, config,
              results, stats, simd_work, high_water);

  const LevelCosts scalar_costs = level_costs(SimdLevel::kScalar);
  const LevelCosts simd_costs = level_costs(level);

  SpeedupModel out;
  out.scalar_units_per_pair =
      (wfa_units(scalar_work, scalar_costs) + kUnitsPerPair * n) / n;
  // Fast-path pairs still pay their classifier scan (sequence bytes at
  // block-compare throughput) and the per-pair overhead.
  const double classifier_units =
      static_cast<double>(stats.fast_path_bases) / simd_costs.bytes_per_step;
  out.simd_units_per_pair =
      (wfa_units(simd_work, simd_costs) + classifier_units +
       kUnitsPerPair * n) /
      n;
  out.speedup = out.simd_units_per_pair > 0
                    ? out.scalar_units_per_pair / out.simd_units_per_pair
                    : 1.0;
  out.fast_path_fraction = stats.fast_path_fraction();
  out.traffic_bytes_per_pair = traffic_bytes_per_pair(stats);
  return out;
}

}  // namespace pimwfa::cpu::simd
