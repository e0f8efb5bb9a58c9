// PimSystem: a set of simulated DPUs plus the host-side transfer and
// launch machinery behind the paper's Fig. 1 breakdown (scatter -> kernel
// -> gather). It moves bytes and runs kernels and keeps no traffic
// counters: the host's one chunked loop (pim/host.cpp) derives every
// transfer volume from its record strides and prices it through
// cost_model().
//
// The transfer and launch entry points are stage-granular and thread-safe
// so that loop can run scatter(i+1), kernel(i) and gather(i-1)
// concurrently: launches can target a DPU subrange, and the paged MRAM
// makes concurrent access to disjoint byte ranges safe (see
// upmem/mram.hpp).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "upmem/cost_model.hpp"
#include "upmem/dpu.hpp"

namespace pimwfa::upmem {

// Result of launching a kernel across a DPU group.
struct LaunchStats {
  u64 max_cycles = 0;     // slowest DPU (kernel wall time)
  u64 total_cycles = 0;   // sum over DPUs (energy-proportional work)
  usize dpus = 0;
  TaskletStats combined;  // summed over all DPUs/tasklets

  double kernel_seconds(const SystemConfig& config) const {
    return config.cycles_to_seconds(max_cycles) + config.host_launch_overhead_s;
  }
};

class PimSystem {
 public:
  // Instantiates `simulated_dpus` of the configured system (0 = all).
  // Simulating a subset is how full-scale (2560-DPU) experiments stay
  // tractable: with a uniformly distributed workload, per-DPU behaviour is
  // homogeneous and the slowest simulated DPU stands in for the slowest
  // overall.
  explicit PimSystem(SystemConfig config, usize simulated_dpus = 0);

  const SystemConfig& config() const noexcept { return config_; }
  const CostModel& cost_model() const noexcept { return cost_model_; }

  usize nr_dpus() const noexcept { return dpus_.size(); }  // simulated
  usize logical_dpus() const noexcept { return config_.nr_dpus(); }

  // Ranks a contiguous range of `count` logical DPUs starting at
  // `first_dpu` spans; transfers to that range proceed at this many
  // ranks' parallelism. Every chunk of the host loop slices every DPU, so
  // it passes the full logical range; DPU-subset transfers would pass
  // their group.
  usize ranks_spanned(usize first_dpu, usize count) const noexcept;

  Dpu& dpu(usize index) { return *dpus_.at(index); }
  const Dpu& dpu(usize index) const { return *dpus_.at(index); }

  // --- host<->MRAM transfers (thread-safe on disjoint bytes) -----------
  void copy_to_mram(usize dpu, u64 addr, std::span<const u8> data);
  void copy_from_mram(usize dpu, u64 addr, std::span<u8> out) const;

  // --- launch ----------------------------------------------------------
  // Launch one kernel instance per simulated DPU in [first, first+count).
  // `factory(dpu_index)` builds the per-DPU kernel object. Runs on `pool`
  // if given. Thread-safe against concurrent transfer stages targeting
  // other MRAM regions. When `per_dpu_cycles` is given it is resized to
  // `count` and filled with each DPU's kernel cycles (the async-launch
  // pipeline model consumes them).
  LaunchStats launch_group(
      usize first, usize count,
      const std::function<std::unique_ptr<DpuKernel>(usize)>& factory,
      usize nr_tasklets, ThreadPool* pool = nullptr,
      std::vector<u64>* per_dpu_cycles = nullptr);

 private:
  SystemConfig config_;
  CostModel cost_model_;
  // The DPU objects are not guarded: concurrent stages touch disjoint
  // MRAM byte ranges, which the paged store makes safe, and launches of
  // one DPU never overlap each other (the chunk schedule sequences them).
  std::vector<std::unique_ptr<Dpu>> dpus_;
};

}  // namespace pimwfa::upmem
