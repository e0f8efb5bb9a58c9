// Host-side long-pair tiling planner.
//
// A pair whose wavefront arena (or MRAM record) exceeds one tasklet's
// share cannot run on a DPU as-is. The planner aligns such a pair with the
// host's own kUltralow recursion (wfa::WfaAligner::ultralow_split and
// ultralow_base_case, the steps align_span takes in kUltralow mode) and
// cuts the resulting path into segments. Every cut lies on that path, in
// the path's component there, so the segments' span scores (seam-charged
// gap_open, see wfa::WfaAligner::Component) add up to the pair's optimal
// score. Segments become independent PairRecords distributed across
// tasklet rows and DPUs like any other pair; PimBatchAligner stitches the
// per-segment results host-side into the CIGAR a `cpu` kUltralow run
// gives at the default base budget (which, where optimal paths tie, is
// not always an untiled kHigh run's).
//
// Frontier. One trace covers every oversized pair of a batch. The
// frontier starts as one subproblem per pair and is expanded one level at
// a time: expanding a subproblem runs ultralow_split, which either closes
// it as a base case or replaces it in place by its two halves; a half with
// an empty side closes at once as a gap run. The final frontier is
// pair-major and left to right - exactly the order of the recursion.
//
// Base cases. Once the frontier is closed, one aligner aligns the base
// cases in frontier order. A pair's path is its closed nodes' CIGARs,
// concatenated; its cost must equal the pair's optimal score.
//
// Cuts. One linear scan per path places them (cut()):
//   - every segment fits max_segment_bases and the arena budget, priced at
//     its exact path cost, which is also its span_score;
//   - no segment crosses the boundary of a closed node, so each base case
//     keeps the CIGAR its retained pass chose;
//   - a path that fits as one segment stays one;
//   - otherwise the path gets the fewest segments that fit, rounded up to
//     a multiple of `slots` (but never to segments averaging under
//     kMinSegmentBases bases), shared out over its closed nodes in
//     proportion to their length and spaced evenly inside each.
//
// Scheduling. A level with at least two open subproblems runs on the
// caller's ThreadPool as min(open, workers) chunks, each with its own
// WfaAligner, pulling subproblems in frontier order as they finish (the
// halves are uneven). A level with one open subproblem, a null pool, a
// one-worker pool and a call from one of the pool's own workers expand on
// the calling thread, as do the base cases (on the first chunk's aligner).
//
// Kernels. The planner's aligners run the WfaKernels table they are
// given (PimBatchAligner passes the runtime-dispatched SIMD table the
// cpu-simd backend uses). Every table is bit-identical by the
// wfa/kernels.hpp contract.
//
// Determinism. Each split step reads only its own subproblem and the base
// cases run in frontier order, so the segments are identical field for
// field whatever the pool width and the kernel table. A failing pair
// raises Error naming it; when several fail, the error is that of the
// first in frontier order.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "seq/view.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {

// One piece of a pair's path. Ranges are absolute in the parent pair;
// begin/end are the seam components the DPU kernel must honor (seeding,
// termination, backtrace).
struct TileSegment {
  usize pair = 0;  // index of the parent pair in the batch
  usize v0 = 0, v1 = 0;  // pattern range [v0, v1)
  usize h0 = 0, h1 = 0;  // text range [h0, h1)
  wfa::WfaAligner::Component begin = wfa::WfaAligner::Component::kM;
  wfa::WfaAligner::Component end = wfa::WfaAligner::Component::kM;
  i64 span_score = 0;  // the path's cost over the segment (stitch check)

  usize pattern_length() const noexcept { return v1 - v0; }
  usize text_length() const noexcept { return h1 - h0; }

  bool operator==(const TileSegment&) const = default;
};

struct TilingConfig {
  align::Penalties penalties = align::Penalties::defaults();
  // Record-size bound: a segment's pattern + text bases never exceed
  // this, keeping PairRecords (and WRAM sequence buffers) bounded.
  usize max_segment_bases = 0;
  // Per-pair score cap (0 = worst case per pair).
  u64 score_cap = 0;
  // Logical tasklet slots (DPUs x tasklets) a tiled pair's segment count
  // is rounded up to a multiple of.
  usize slots = 1;
};

class TilingPlanner {
 public:
  // The smallest max_segment_bases the planner accepts.
  static constexpr usize kMinSegmentBases = 16;

  explicit TilingPlanner(
      TilingConfig config,
      const wfa::WfaKernels& kernels = wfa::scalar_kernels());

  // Aligns the pairs `pairs` (indices into `batch`, ascending) along the
  // kUltralow recursion and keeps their paths for cut(), replacing those
  // of any earlier trace. `pool` may be null (the serial planner). Throws
  // Error naming the pair when a pair cannot be aligned (score cap
  // exceeded). One call at a time per planner: calls reuse its aligners.
  void trace(seq::ReadPairSpan batch, const std::vector<usize>& pairs,
             ThreadPool* pool = nullptr);

  // Cuts the traced paths into segments, pair-major and left to right,
  // whose retained wavefronts fit `arena_budget_bytes`, the per-tasklet
  // metadata heap a segment gets (layout arena minus descriptor table and
  // slack): one segment for a pair that fits untiled, several otherwise.
  std::vector<TileSegment> cut(u64 arena_budget_bytes) const;

  // Peak metadata-arena bytes a DPU tasklet needs to retain the full
  // wavefront history of a (sub)problem of this score and size - the
  // MRAM mirror of the host's kHigh footprint.
  static u64 retained_arena_estimate(i64 score, usize plen, usize tlen);

 private:
  struct Node;
  struct Expansion;
  // A traced pair: the ops of its path (one per CIGAR column) as maximal
  // runs of one op, (op, end op), and for every closed node in order the
  // op its path ends before and its end component.
  struct Path {
    usize pair = 0;
    usize plen = 0, tlen = 0;
    i64 total = -1;  // optimal score (-1: a gap-run pair, never split)
    std::vector<std::pair<char, usize>> runs;
    std::vector<std::pair<usize, wfa::WfaAligner::Component>> nodes;
  };

  void cut_path(const Path& path, u64 arena_budget_bytes,
                std::vector<TileSegment>& out) const;

  TilingConfig config_;
  wfa::WfaKernels kernels_;
  // One aligner per chunk, built when a level first needs that many and
  // reused across levels and traces. Split steps need O(s) memory each;
  // the first also aligns the base cases and keeps its retained arena.
  std::vector<std::unique_ptr<wfa::WfaAligner>> aligners_;
  std::vector<Path> paths_;
};

// Combines per-segment DPU results (in segment order) into the parent
// pair's result: score is the sum of the span scores, CIGARs concatenate.
// Verifies the sum against the planner's expectation.
align::AlignmentResult stitch_segments(
    const std::vector<TileSegment>& segments, usize seg_begin, usize seg_end,
    const std::vector<align::AlignmentResult>& segment_results, bool full);

}  // namespace pimwfa::pim
