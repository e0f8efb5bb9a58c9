// Roofline projection of CPU batch-alignment time onto the paper's server.
//
// The paper's observation (1) is that WFA batch alignment on the CPU "does
// not scale well with the number of threads ... since its performance is
// limited by memory bandwidth". The standard analytic form of that
// behaviour is the roofline:
//
//   T(N) = max( T1 / eff(N),  traffic_bytes / mem_bandwidth )
//
// where T1 is the measured single-thread time, eff(N) the effective
// core-equivalents of N hardware threads (SMT threads yield less than full
// cores), and traffic the aggregate DRAM traffic of the batch.
//
// This substitutes for the dual-socket Xeon Gold 5120 we do not have: T1
// and the per-pair traffic are *measured* from the real implementation on
// this machine; only the machine envelope (core count, SMT yield,
// effective bandwidth) is taken from the target system. The effective
// bandwidth default is calibrated to reproduce the scaling plateau of the
// paper's Fig. 1.
#pragma once

#include <string>

#include "common/types.hpp"

namespace pimwfa::cpu {

struct CpuSystemModel {
  std::string name = "2x Intel Xeon Gold 5120 (56 threads)";
  usize sockets = 2;
  usize cores_per_socket = 14;
  usize threads_per_core = 2;
  // Throughput of a core running two SMT threads relative to one thread.
  double smt_yield = 1.3;
  // Effective (not peak) DRAM bandwidth for WFA's access pattern, both
  // sockets combined. Peak is ~230 GB/s; small irregular accesses under
  // full-socket contention achieve ~10% of that.
  double mem_bandwidth = 21e9;
  // Single-thread speed of the machine running this benchmark relative to
  // one Xeon Gold 5120 core (2.2 GHz Skylake-SP) on this code. Measured
  // T1 is multiplied by this before projection.
  double host_core_ratio = 2.2;

  usize max_threads() const noexcept {
    return sockets * cores_per_socket * threads_per_core;
  }
  usize cores() const noexcept { return sockets * cores_per_socket; }

  // Core-equivalents of running `threads` hardware threads.
  double effective_parallelism(usize threads) const noexcept;
};

class ScalingModel {
 public:
  // `t1_seconds`: measured single-thread time of the batch;
  // `traffic_bytes`: estimated DRAM traffic of the whole batch.
  ScalingModel(CpuSystemModel system, double t1_seconds, double traffic_bytes);

  // Projected wall time with `threads` threads on the modeled system.
  double project(usize threads) const;

  // Thread count beyond which the batch is bandwidth-bound.
  usize saturation_threads() const;

  double t1() const noexcept { return t1_; }
  double memory_floor_seconds() const noexcept;
  const CpuSystemModel& system() const noexcept { return system_; }

 private:
  CpuSystemModel system_;
  double t1_;
  double traffic_;
};

// DRAM traffic estimate for a WFA batch. Two components:
//  - a fixed per-pair footprint (sequence buffers, the arena region the
//    allocator re-touches every alignment, result records, allocator and
//    queue bookkeeping) - E-independent, and dominant at low error rates:
//    this is why the paper's 56-thread bars barely move from E=2% to 4%;
//  - the score-dependent wavefront metadata (measured via
//    WfaCounters::allocated_bytes), discounted because a fraction of the
//    re-reads hit cache.
struct TrafficModel {
  double per_pair_fixed_bytes = 7000;
  double metadata_factor = 0.5;
};

double estimate_batch_traffic(u64 pairs, u64 metadata_bytes,
                              const TrafficModel& model = {});

// One-call roofline projection shared by everything that models a CPU
// batch (the cpu backend's unified run(), the hybrid calibration):
// modeled seconds for a `pairs`-pair batch given its modeled
// single-thread time and wavefront metadata bytes, on all of the
// machine's threads. Linear in both roofline terms, so a k-fraction
// share of the batch takes exactly k times this.
double project_batch_seconds(const CpuSystemModel& system, double t1_seconds,
                             u64 pairs, u64 metadata_bytes);

// Same projection with the traffic supplied directly instead of through
// estimate_batch_traffic - for callers with their own traffic model (the
// SIMD layer's fast paths skip the wavefront arena entirely, so their
// per-pair footprint is far below the scalar backend's fixed bytes).
double project_batch_seconds_traffic(const CpuSystemModel& system,
                                     double t1_seconds, double traffic_bytes);

}  // namespace pimwfa::cpu
