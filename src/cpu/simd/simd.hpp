// SIMD-accelerated CPU batch alignment (the `cpu-simd` backend).
//
// Three pieces, all bit-identical to the scalar WFA by construction (the
// differential harness enforces it at every dispatch level):
//
//  1. Dispatch. The instruction-set ceiling is fixed at compile time by
//     the PIMWFA_SIMD CMake option (-> PIMWFA_SIMD_LEVEL), narrowed at
//     runtime by what the host CPU actually supports, and overridable
//     downward with the PIMWFA_FORCE_SIMD environment knob
//     (scalar|avx2; forcing above the supported ceiling throws).
//
//  2. Vectorized WFA kernels. The AVX2 extend match-run scan compares
//     32 bases per step; the compute recurrence runs 8 diagonals per
//     lane over the padded wavefront rows (see wfa/kernels.hpp for the
//     sentinel-padding contract). Plugged into WfaAligner through
//     wfa::WfaKernels.
//
//  3. Exact fast paths. Before a pair reaches the full aligner, a
//     lane-batched classifier (8 pairs per group, early-exiting lanes,
//     scalar tail for remainders) computes capped Hamming distances for
//     equal-length pairs. Pairs whose mismatch count h satisfies
//     h * x < 2 * (gap_open + gap_extend) have the gapless diagonal as
//     their *unique* optimum (any gapped alignment of equal lengths
//     carries at least one insertion run and one deletion run, so costs
//     >= 2*(o+e) regardless of its mismatches), so score and CIGAR are
//     emitted directly. In score-only mode two more exact shortcuts
//     apply: pairs whose length difference g is bridged by one gap
//     (common prefix + common suffix covering the shorter read) score
//     exactly gap_open + g*gap_extend (the lower bound for any
//     alignment of those lengths), and under unit edit penalties the
//     bit-parallel Myers distance *is* the gap-affine score. Every fast
//     path is gated by the edit threshold; pairs over it fall back to
//     the full WFA.
#pragma once

#include <string_view>
#include <vector>

#include "align/penalties.hpp"
#include "common/types.hpp"
#include "seq/view.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wavefront.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::cpu::simd {

// Dispatch levels, ordered: comparisons and std::min work as expected.
enum class SimdLevel : u8 {
  kScalar = 0,
  kAvx2 = 1,
};

// "scalar" / "avx2".
const char* level_name(SimdLevel level) noexcept;
// Inverse of level_name; throws InvalidArgument on anything else.
SimdLevel parse_level(std::string_view name);

// Highest level compiled into this binary (the PIMWFA_SIMD CMake option).
SimdLevel compiled_level() noexcept;
// Highest level this host can execute: min(compiled, CPU feature bits).
SimdLevel runtime_level() noexcept;
// The level the backend will use: runtime_level(), unless the
// PIMWFA_FORCE_SIMD environment variable pins one. Forcing a level above
// runtime_level() throws InvalidArgument (a silent downgrade would make
// the CI matrix legs test nothing).
SimdLevel active_level();
// The resolution rule behind the env knob, exposed for tests: parses
// `name` and validates it against runtime_level().
SimdLevel resolve_forced_level(std::string_view name);

// Pairs classified per lane-batched group: 8 (AVX2), 1 (scalar).
usize lane_width(SimdLevel level) noexcept;

// Fast-path counters, merged across worker threads like WfaCounters.
struct SimdStats {
  u64 pairs = 0;            // pairs routed through align_range
  u64 hamming_pairs = 0;    // equal-length diagonal fast path
  u64 gap_pairs = 0;        // single-gap score-only fast path
  u64 myers_pairs = 0;      // bit-parallel edit-distance fast path
  u64 wfa_pairs = 0;        // full WFA fallbacks
  u64 fast_path_bases = 0;  // bases of pairs resolved by a fast path
  u64 lane_batches = 0;     // full-width classifier groups
  u64 tail_pairs = 0;       // pairs classified by the scalar tail loop
  u64 early_exit_lanes = 0; // lanes that left lockstep on the cap

  u64 fast_path_pairs() const noexcept {
    return hamming_pairs + gap_pairs + myers_pairs;
  }
  double fast_path_fraction() const noexcept {
    return pairs > 0
               ? static_cast<double>(fast_path_pairs()) /
                     static_cast<double>(pairs)
               : 0.0;
  }
  void merge(const SimdStats& other) noexcept;
};

// Fast-path gate: the maximum number of edits a fast path may absorb.
struct FastPathConfig {
  // 0 = auto: max(8, shorter_read_length / 4) per pair, so genuinely
  // divergent pairs always exercise the full-WFA fallback.
  usize edit_threshold = 0;

  usize resolve(usize pattern_length, usize text_length) const noexcept {
    if (edit_threshold != 0) return edit_threshold;
    const usize shorter = pattern_length < text_length ? pattern_length
                                                       : text_length;
    const usize quarter = shorter / 4;
    return quarter > 8 ? quarter : 8;
  }
};

// WFA inner kernels for `level` (vectorized extend scan + recurrence
// row); pass as WfaAligner::Options::kernels. The returned reference is
// to a static table.
const wfa::WfaKernels& wfa_kernels(SimdLevel level);

// Testable primitives (same code paths align_range uses).
// Longest common prefix of a[0..max) and b[0..max).
usize match_run(SimdLevel level, const char* a, const char* b, usize max);
// Hamming distance of equal-length views: exact when <= cap, otherwise
// any value > cap (the scan stops early). Throws on length mismatch.
u64 hamming_capped(SimdLevel level, std::string_view a, std::string_view b,
                   u64 cap);
// Appends the positions where a and b differ (equal lengths required).
void mismatch_positions(SimdLevel level, std::string_view a,
                        std::string_view b, std::vector<u32>& out);

// Align pairs [begin, end) of `batch` into results[begin, end),
// bit-identical (scores and CIGARs) to WfaAligner with scalar kernels.
// `results` must already have size >= end. Merges the fallback aligner's
// work counters into `counters` and raises `allocator_high_water` to the
// fallback arena's high water mark. This is the cpu-simd backend's
// per-worker loop body.
// `memory_mode` sets the fallback aligner's wavefront retention (fast
// paths never touch the arena); kUltralow keeps long-read batches O(s).
void align_range(seq::ReadPairSpan batch, usize begin, usize end,
                 const align::Penalties& penalties,
                 align::AlignmentScope scope, SimdLevel level,
                 const FastPathConfig& config,
                 std::vector<align::AlignmentResult>& results,
                 SimdStats& stats, wfa::WfaCounters& counters,
                 u64& allocator_high_water,
                 wfa::WfaAligner::MemoryMode memory_mode =
                     wfa::WfaAligner::MemoryMode::kHigh);

// Modeled DRAM traffic per pair of the pairs counted in `stats` (an
// align_range run; stats.pairs must be > 0). Fallback pairs keep the
// scalar backend's fixed per-pair footprint; fast-path pairs touch only
// their sequences plus a result record. Wavefront metadata is excluded
// on both sides, mirroring the deterministic cpu_per_pair_seconds path
// (scaling_model.hpp). This is the one traffic formula: model_sample
// prices its sample with it, and the cpu-simd projection and the hybrid
// calibration price the counters of the batch they just aligned.
double traffic_bytes_per_pair(const SimdStats& stats);

// Deterministic single-core cost model of the SIMD layer, derived from
// work counters (never wall time): the same sample is aligned once with
// scalar kernels and once through align_range, and both runs' counters
// are priced in scalar unit-operations with fixed per-level lane
// efficiencies. Since it re-aligns its sample twice, only the callers
// that read its speedup run it: the CI perf gate
// (bench_simd's simd_vs_scalar_throughput), and the cpu-simd run() and
// hybrid calibration when a cpu_per_pair_seconds override must be
// divided by the modeled speedup. It must be reproducible across
// machines.
struct SpeedupModel {
  double speedup = 1.0;              // scalar units / simd units
  double fast_path_fraction = 0.0;   // pairs resolved without full WFA
  double traffic_bytes_per_pair = 0; // modeled DRAM traffic per pair
  double scalar_units_per_pair = 0;
  double simd_units_per_pair = 0;
};
SpeedupModel model_sample(seq::ReadPairSpan sample,
                          const align::Penalties& penalties,
                          align::AlignmentScope scope,
                          const FastPathConfig& config, SimdLevel level);

}  // namespace pimwfa::cpu::simd
