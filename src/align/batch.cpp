#include "align/batch.hpp"

#include "common/check.hpp"

namespace pimwfa::align {

MemoryMode parse_memory_mode(const std::string& name) {
  if (name == "high") return MemoryMode::kHigh;
  if (name == "low") return MemoryMode::kLow;
  if (name == "ultralow") return MemoryMode::kUltralow;
  throw InvalidArgument("unknown memory mode '" + name +
                        "' (expected high, low or ultralow)");
}

const char* memory_mode_name(MemoryMode mode) {
  switch (mode) {
    case MemoryMode::kHigh: return "high";
    case MemoryMode::kLow: return "low";
    case MemoryMode::kUltralow: return "ultralow";
  }
  return "?";
}

void BatchOptions::validate() const {
  penalties.validate();
  PIMWFA_ARG_CHECK(pim_tasklets >= 1, "need at least one tasklet per DPU");
  PIMWFA_ARG_CHECK(pim_pipeline || pim_pipeline_chunks == 0,
                   "--chunks " << pim_pipeline_chunks
                               << " needs pipelining on (--pipeline)");
  PIMWFA_ARG_CHECK(hybrid_cpu_fraction <= 1.0,
                   "hybrid_cpu_fraction must be <= 1 (negative = calibrate)");
}

}  // namespace pimwfa::align
