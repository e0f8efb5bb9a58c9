#include "cpu/scaling_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pimwfa::cpu {

double CpuSystemModel::effective_parallelism(usize threads) const noexcept {
  const usize capped = std::min(threads, max_threads());
  const usize physical = cores();
  if (capped <= physical) return static_cast<double>(capped);
  // Beyond one thread per core, each extra SMT sibling adds only the SMT
  // margin of its core.
  const usize doubled = capped - physical;
  return static_cast<double>(physical - doubled) +
         static_cast<double>(doubled) * smt_yield;
}

ScalingModel::ScalingModel(CpuSystemModel system, double t1_seconds,
                           double traffic_bytes)
    : system_(system), t1_(t1_seconds), traffic_(traffic_bytes) {
  PIMWFA_ARG_CHECK(t1_seconds > 0, "single-thread time must be positive");
  PIMWFA_ARG_CHECK(traffic_bytes >= 0, "traffic must be non-negative");
}

double ScalingModel::memory_floor_seconds() const noexcept {
  return traffic_ / system_.mem_bandwidth;
}

double ScalingModel::project(usize threads) const {
  PIMWFA_ARG_CHECK(threads >= 1, "thread count must be positive");
  const double compute = t1_ / system_.effective_parallelism(threads);
  return std::max(compute, memory_floor_seconds());
}

usize ScalingModel::saturation_threads() const {
  const double floor = memory_floor_seconds();
  if (floor <= 0) return system_.max_threads();
  for (usize n = 1; n <= system_.max_threads(); ++n) {
    if (t1_ / system_.effective_parallelism(n) <= floor) return n;
  }
  return system_.max_threads();
}

double estimate_batch_traffic(u64 pairs, u64 metadata_bytes,
                              const TrafficModel& model) {
  return static_cast<double>(pairs) * model.per_pair_fixed_bytes +
         model.metadata_factor * static_cast<double>(metadata_bytes);
}

double project_batch_seconds_traffic(const CpuSystemModel& system,
                                     double t1_seconds, double traffic_bytes) {
  const ScalingModel scaling(system, t1_seconds, traffic_bytes);
  return scaling.project(system.max_threads());
}

double project_batch_seconds(const CpuSystemModel& system, double t1_seconds,
                             u64 pairs, u64 metadata_bytes) {
  return project_batch_seconds_traffic(
      system, t1_seconds, estimate_batch_traffic(pairs, metadata_bytes));
}

}  // namespace pimwfa::cpu
