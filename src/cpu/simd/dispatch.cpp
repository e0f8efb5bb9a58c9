// Compile-time + runtime SIMD dispatch and the per-level kernel tables.
#include <algorithm>
#include <cstdlib>

#include "common/check.hpp"
#include "cpu/simd/kernel_table.hpp"
#include "cpu/simd/simd.hpp"

namespace pimwfa::cpu::simd {

namespace {

u32 mismatch_mask_scalar(const char* a, const char* b, usize len) {
  u32 mask = 0;
  for (usize i = 0; i < len; ++i) {
    mask |= static_cast<u32>(a[i] != b[i]) << i;
  }
  return mask;
}

constexpr KernelTable kScalarTable{&wfa::match_run_scalar,
                                   &wfa::compute_row_scalar,
                                   &mismatch_mask_scalar, 16, 1};
#if PIMWFA_SIMD_LEVEL >= 1
constexpr KernelTable kAvx2Table{&match_run_avx2, &compute_row_avx2,
                                 &mismatch_mask_avx2, 32, 8};
#endif

}  // namespace

const KernelTable& kernel_table(SimdLevel level) noexcept {
#if PIMWFA_SIMD_LEVEL >= 1
  if (level >= SimdLevel::kAvx2) return kAvx2Table;
#endif
  (void)level;
  return kScalarTable;
}

const char* level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel parse_level(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  throw InvalidArgument("unknown SIMD level '" + std::string(name) +
                        "' (expected scalar or avx2)");
}

SimdLevel compiled_level() noexcept {
#if PIMWFA_SIMD_LEVEL >= 1
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel runtime_level() noexcept {
  static const SimdLevel level = [] {
    SimdLevel host = SimdLevel::kScalar;
#if defined(__GNUC__) || defined(__clang__)
    if (__builtin_cpu_supports("avx2")) host = SimdLevel::kAvx2;
#endif
    return std::min(host, compiled_level());
  }();
  return level;
}

SimdLevel resolve_forced_level(std::string_view name) {
  const SimdLevel level = parse_level(name);
  PIMWFA_ARG_CHECK(
      level <= runtime_level(),
      "PIMWFA_FORCE_SIMD=" << std::string(name)
                           << " exceeds this build/host's ceiling ("
                           << level_name(runtime_level()) << "; compiled "
                           << level_name(compiled_level()) << ")");
  return level;
}

SimdLevel active_level() {
  // Re-read the environment on every call (backend construction, tests):
  // dispatch is decided per backend instance, not per process.
  const char* forced = std::getenv("PIMWFA_FORCE_SIMD");
  if (forced == nullptr || *forced == '\0') return runtime_level();
  return resolve_forced_level(forced);
}

usize lane_width(SimdLevel level) noexcept {
  return kernel_table(level).lanes;
}

const wfa::WfaKernels& wfa_kernels(SimdLevel level) {
  static const wfa::WfaKernels kTables[] = {
      {kernel_table(SimdLevel::kScalar).match_run,
       kernel_table(SimdLevel::kScalar).compute_row},
      {kernel_table(SimdLevel::kAvx2).match_run,
       kernel_table(SimdLevel::kAvx2).compute_row},
  };
  return kTables[static_cast<usize>(level)];
}

void SimdStats::merge(const SimdStats& other) noexcept {
  pairs += other.pairs;
  hamming_pairs += other.hamming_pairs;
  gap_pairs += other.gap_pairs;
  myers_pairs += other.myers_pairs;
  wfa_pairs += other.wfa_pairs;
  fast_path_bases += other.fast_path_bases;
  lane_batches += other.lane_batches;
  tail_pairs += other.tail_pairs;
  early_exit_lanes += other.early_exit_lanes;
}

}  // namespace pimwfa::cpu::simd
