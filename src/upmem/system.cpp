#include "upmem/system.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_safety.hpp"

namespace pimwfa::upmem {

PimSystem::PimSystem(SystemConfig config, usize simulated_dpus)
    : config_(config), cost_model_(config_) {
  config_.validate();
  const usize logical = config_.nr_dpus();
  usize count = simulated_dpus == 0 ? logical : simulated_dpus;
  PIMWFA_ARG_CHECK(count <= logical,
                   "cannot simulate more DPUs than the system has");
  dpus_.reserve(count);
  for (usize i = 0; i < count; ++i) {
    dpus_.push_back(std::make_unique<Dpu>(config_, i));
  }
}

usize PimSystem::ranks_spanned(usize first_dpu, usize count) const noexcept {
  if (count == 0) return 0;
  const usize per_rank = config_.dpus_per_rank;
  const usize first_rank = first_dpu / per_rank;
  const usize last_rank = (first_dpu + count - 1) / per_rank;
  return last_rank - first_rank + 1;
}

void PimSystem::copy_to_mram(usize dpu, u64 addr, std::span<const u8> data) {
  dpus_.at(dpu)->mram().write(addr, data.data(), data.size());
}

void PimSystem::copy_from_mram(usize dpu, u64 addr, std::span<u8> out) const {
  dpus_.at(dpu)->mram().read(addr, out.data(), out.size());
}

LaunchStats PimSystem::launch_group(
    usize first, usize count,
    const std::function<std::unique_ptr<DpuKernel>(usize)>& factory,
    usize nr_tasklets, ThreadPool* pool, std::vector<u64>* per_dpu_cycles) {
  PIMWFA_ARG_CHECK(first <= dpus_.size() && count <= dpus_.size() - first,
                   "launch group [" << first << ", " << first + count
                                    << ") exceeds the " << dpus_.size()
                                    << " simulated DPUs");
  LaunchStats stats;
  stats.dpus = count;
  if (per_dpu_cycles != nullptr) per_dpu_cycles->assign(count, 0);
  Mutex merge_mutex;
  auto run_range = [&](usize begin, usize end) {
    u64 local_max = 0;
    u64 local_total = 0;
    TaskletStats local_combined;
    for (usize d = first + begin; d < first + end; ++d) {
      std::unique_ptr<DpuKernel> kernel = factory(d);
      PIMWFA_CHECK(kernel != nullptr, "kernel factory returned null");
      const DpuRunStats run = dpus_[d]->launch(*kernel, nr_tasklets);
      if (per_dpu_cycles != nullptr) (*per_dpu_cycles)[d - first] = run.cycles;
      local_max = std::max(local_max, run.cycles);
      local_total += run.cycles;
      local_combined.merge(run.combined());
    }
    MutexLock lock(merge_mutex);
    stats.max_cycles = std::max(stats.max_cycles, local_max);
    stats.total_cycles += local_total;
    stats.combined.merge(local_combined);
  };
  if (pool != nullptr) {
    pool->parallel_for(count, run_range);
  } else {
    run_range(0, count);
  }
  return stats;
}

}  // namespace pimwfa::upmem
