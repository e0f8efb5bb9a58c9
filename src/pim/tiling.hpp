// Host-side long-pair tiling planner.
//
// A pair whose wavefront arena (or MRAM record) exceeds one tasklet's
// share cannot run on a DPU as-is. The planner cuts such a pair into
// breakpoint-delimited segments using the BiWFA bidirectional pass
// (wfa::WfaAligner::find_breakpoint): every cut lies ON an optimal
// alignment path, so the segments' span scores (seam-charged gap_open,
// see wfa::WfaAligner::Component) add up to the pair's optimal score.
// Segments become independent PairRecords distributed across tasklet
// rows and DPUs like any other pair; PimBatchAligner stitches the
// per-segment results host-side into that optimal score and a verified
// co-optimal CIGAR (not always the CIGAR of an untiled kHigh run: where
// several optimal paths tie, the cut can pin a different one).
//
// Frontier. One call plans every oversized pair of a batch together. The
// frontier starts as one open subproblem per pair and is expanded one
// level at a time: expanding a subproblem runs find_breakpoint, keeps the
// subproblem as one segment when it fits, and otherwise replaces it in
// place by its left and right halves (cut at the meet, at the diagonal
// midpoint of a score-0 path, or at the midpoint of a span alignment when
// the meet falls on a corner). The final frontier is pair-major and left
// to right - exactly the order of a depth-first recursion.
//
// Scheduling. A level with at least two open subproblems runs on the
// caller's ThreadPool as min(open, workers) chunks, each with its own
// WfaAligner, pulling subproblems in frontier order as they finish (the
// halves are uneven). A level with one open subproblem, a null pool, a
// one-worker pool and a call from one of the pool's own workers expand on
// the calling thread.
//
// Kernels. The planner's aligners run the WfaKernels table they are
// given (PimBatchAligner passes the runtime-dispatched SIMD table the
// cpu-simd backend uses). Every table is bit-identical by the
// wfa/kernels.hpp contract.
//
// Determinism. Each expansion reads only its own subproblem, so the
// segments are identical field for field whatever the pool width and the
// kernel table. A failing subproblem raises Error naming its pair; when
// several fail, the error is that of the first in frontier order.
#pragma once

#include <memory>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "seq/view.hpp"
#include "wfa/kernels.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {

// One breakpoint-delimited piece of a pair. Ranges are absolute in the
// parent pair; begin/end are the seam components the DPU kernel must
// honor (seeding, termination, backtrace).
struct TileSegment {
  usize pair = 0;  // index of the parent pair in the batch
  usize v0 = 0, v1 = 0;  // pattern range [v0, v1)
  usize h0 = 0, h1 = 0;  // text range [h0, h1)
  wfa::WfaAligner::Component begin = wfa::WfaAligner::Component::kM;
  wfa::WfaAligner::Component end = wfa::WfaAligner::Component::kM;
  i64 span_score = 0;  // planner's span cost (stitch verification)

  usize pattern_length() const noexcept { return v1 - v0; }
  usize text_length() const noexcept { return h1 - h0; }

  bool operator==(const TileSegment&) const = default;
};

struct TilingConfig {
  align::Penalties penalties = align::Penalties::defaults();
  // Per-tasklet metadata heap available for one segment's retained
  // wavefronts (layout arena minus descriptor table and slack).
  u64 arena_budget_bytes = 0;
  // Record-size bound: a segment's pattern + text bases never exceed
  // this, keeping PairRecords (and WRAM sequence buffers) bounded.
  usize max_segment_bases = 0;
  // Per-pair score cap (0 = worst case per subproblem).
  u64 score_cap = 0;
};

class TilingPlanner {
 public:
  // The smallest max_segment_bases the planner accepts.
  static constexpr usize kMinSegmentBases = 16;

  explicit TilingPlanner(
      TilingConfig config,
      const wfa::WfaKernels& kernels = wfa::scalar_kernels());

  // Segments of the pairs `pairs` (indices into `batch`, ascending), pair-
  // major and left to right: one segment for a pair that fits untiled
  // under the config, several otherwise. `pool` may be null (the serial
  // planner). Throws Error naming the pair when a pair cannot be
  // segmented (score cap exceeded, or a breakpoint on a corner of an
  // oversized subproblem). One call at a time per planner: calls reuse
  // its aligners.
  std::vector<TileSegment> plan(seq::ReadPairSpan batch,
                                const std::vector<usize>& pairs,
                                ThreadPool* pool = nullptr);

  // Peak metadata-arena bytes a DPU tasklet needs to retain the full
  // wavefront history of a (sub)problem of this score and size - the
  // MRAM mirror of the host's kHigh footprint.
  static u64 retained_arena_estimate(i64 score, usize plen, usize tlen);

 private:
  struct Node;
  struct Expansion;

  Expansion expand(const Node& node, wfa::WfaAligner& aligner) const;

  TilingConfig config_;
  wfa::WfaKernels kernels_;
  // One aligner per chunk, built when a level first needs that many and
  // reused across levels and plans (find_breakpoint machinery only: O(s)
  // memory each).
  std::vector<std::unique_ptr<wfa::WfaAligner>> aligners_;
};

// Combines per-segment DPU results (in segment order) into the parent
// pair's result: score is the sum of the span scores, CIGARs concatenate.
// Verifies the sum against the planner's expectation.
align::AlignmentResult stitch_segments(
    const std::vector<TileSegment>& segments, usize seg_begin, usize seg_end,
    const std::vector<align::AlignmentResult>& segment_results, bool full);

}  // namespace pimwfa::pim
