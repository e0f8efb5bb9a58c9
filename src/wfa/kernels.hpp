// Pluggable inner kernels of the wavefront aligner.
//
// WfaAligner's two hot loops - the per-diagonal match-run scan of the
// extend step and the per-diagonal recurrence of the compute step - are
// factored into free-function kernels behind this interface so that an
// accelerated implementation (the SIMD backend under cpu/simd/) can
// replace them without the wfa/ layer knowing about instruction sets.
// Both kernels compute the exact same mathematical object as the scalar
// defaults; any implementation plugged in here must stay bit-identical
// (the differential harness enforces this across every dispatch level).
//
// Lane-friendliness contract: every wavefront row is allocated with
// kWavefrontPad sentinel slots (kOffsetNone) on each side of [lo, hi], so
// a vectorized compute_row may read one slot past either end of a source
// row - exactly what the k-1 / k+1 shifted accesses of the recurrence
// need - without bounds branches or masked loads. shrink_wavefront
// (adaptive reduction) restores the sentinel value on every cell it
// drops, keeping the contract intact after in-place narrowing.
#pragma once

#include "common/types.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::wfa {

// Sentinel-filled slots allocated on both sides of every wavefront row.
inline constexpr usize kWavefrontPad = 8;

// Mismatch-predecessor candidate for M[s][k]: advance one along the
// diagonal, trimmed against the sequence bounds (h <= tlen, v <= plen).
// Shared by compute_row, the backtrace, the SIMD kernels and the DPU
// kernel (pim/dpu_wfa_kernel.cpp) so all see identical values.
inline Offset mismatch_candidate(Offset prev, i32 k, i32 plen,
                                 i32 tlen) noexcept {
  if (!offset_reachable(prev)) return kOffsetNone;
  const Offset off = prev + 1;
  if (off > tlen || off - k > plen) return kOffsetNone;
  return off;
}

// Length of the common prefix of a[0..max) and b[0..max).
using MatchRunFn = usize (*)(const char* a, const char* b, usize max);

// One score's recurrence over the diagonal range [lo, hi]. Source rows
// are null when that predecessor score is unreachable (a hole) or out of
// lookback range; non-null sources are guaranteed to exist. Output rows
// are pre-allocated over exactly [lo, hi] and every cell must be written.
struct ComputeRowArgs {
  const Wavefront* m_sub = nullptr;  // M[s - x]
  const Wavefront* m_gap = nullptr;  // M[s - o - e]
  const Wavefront* i_ext = nullptr;  // I[s - e]
  const Wavefront* d_ext = nullptr;  // D[s - e]
  Wavefront* out_m = nullptr;
  Wavefront* out_i = nullptr;
  Wavefront* out_d = nullptr;
  i32 lo = 0;
  i32 hi = -1;
  i32 pl = 0;  // pattern length
  i32 tl = 0;  // text length
};
using ComputeRowFn = void (*)(const ComputeRowArgs& args);

struct WfaKernels {
  MatchRunFn match_run = nullptr;
  ComputeRowFn compute_row = nullptr;
};

// The portable byte-at-a-time defaults (the historical inner loops).
usize match_run_scalar(const char* a, const char* b, usize max);
void compute_row_scalar(const ComputeRowArgs& args);
const WfaKernels& scalar_kernels();

}  // namespace pimwfa::wfa
