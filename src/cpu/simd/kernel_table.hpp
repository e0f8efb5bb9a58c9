// Internal per-level kernel table of the SIMD layer. The AVX2
// translation unit (kernels_avx2.cpp) is compiled with its instruction
// set enabled for that file only and exists only when the PIMWFA_SIMD
// compile ceiling includes it; everything else reaches its entry points
// through kernel_table(), which degrades an uncompiled level to the
// scalar kernels.
#pragma once

#include "common/types.hpp"
#include "wfa/kernels.hpp"

// Compile-time ISA ceiling: 0 scalar, 1 AVX2. Set by CMake
// (PIMWFA_SIMD option); plain compiles get the portable floor.
#ifndef PIMWFA_SIMD_LEVEL
#define PIMWFA_SIMD_LEVEL 0
#endif

namespace pimwfa::cpu::simd {

// Defined in simd.hpp; forward-declared so the AVX2 translation unit
// stays independent of the rest of the library's headers.
enum class SimdLevel : u8;

// Bitmask of mismatching byte positions of a[0..len) vs b[0..len),
// len <= block_bytes (bit i set iff a[i] != b[i]; bits >= len clear).
using MismatchMaskFn = u32 (*)(const char* a, const char* b, usize len);

struct KernelTable {
  wfa::MatchRunFn match_run = nullptr;
  wfa::ComputeRowFn compute_row = nullptr;
  MismatchMaskFn mismatch_mask = nullptr;
  usize block_bytes = 0;  // classifier block size (mismatch_mask span)
  usize lanes = 0;        // pairs per classifier group
};

// Table for `level`, degraded to the scalar table when the binary was
// built with PIMWFA_SIMD=off (active_level() never asks
// for an uncompiled level; this keeps direct callers safe too).
const KernelTable& kernel_table(SimdLevel level) noexcept;

#if PIMWFA_SIMD_LEVEL >= 1
usize match_run_avx2(const char* a, const char* b, usize max);
void compute_row_avx2(const wfa::ComputeRowArgs& args);
u32 mismatch_mask_avx2(const char* a, const char* b, usize len);
#endif

}  // namespace pimwfa::cpu::simd
