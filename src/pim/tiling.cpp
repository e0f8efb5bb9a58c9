#include "pim/tiling.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "common/check.hpp"

namespace pimwfa::pim {

using Component = wfa::WfaAligner::Component;

// An entry of the planning frontier: an open subproblem - the views of a
// pair's pattern [v0, v1) and text [h0, h1), its seam components and its
// score cap - or, once closed, a finished segment.
struct TilingPlanner::Node {
  TileSegment segment;  // span_score is set when the node closes
  std::string_view pattern, text;
  i64 score_cap = 0;
  bool open = true;
};

// What expanding one open node produced: the node closed as one segment
// (count 1), its left and right halves (count 2), or an error.
struct TilingPlanner::Expansion {
  Node nodes[2];
  usize count = 0;
  std::exception_ptr error;
};

namespace {

wfa::WfaAligner::Options planner_options(const align::Penalties& penalties,
                                         const wfa::WfaKernels& kernels) {
  wfa::WfaAligner::Options options;
  options.penalties = penalties;
  options.memory_mode = wfa::WfaAligner::MemoryMode::kUltralow;
  options.kernels = &kernels;
  return options;
}

}  // namespace

TilingPlanner::TilingPlanner(TilingConfig config,
                             const wfa::WfaKernels& kernels)
    : config_(config), kernels_(kernels) {
  PIMWFA_ARG_CHECK(config_.arena_budget_bytes > 0,
                   "tiling needs a positive arena budget");
  PIMWFA_ARG_CHECK(config_.max_segment_bases >= kMinSegmentBases,
                   "tiling needs max_segment_bases >= " << kMinSegmentBases);
}

u64 TilingPlanner::retained_arena_estimate(i64 score, usize plen,
                                           usize tlen) {
  // Mirrors the DPU kernel's MetaSpace consumption: 3 offset arrays per
  // score, widths growing 2s+1 until the band caps them, 8-byte
  // allocation granularity per array.
  const i64 band = static_cast<i64>(plen + tlen + 1);
  const i64 knee = std::min(score, (band - 1) / 2);
  const u64 growing = static_cast<u64>(knee + 1) * static_cast<u64>(knee + 1);
  const u64 flat = score > knee
                       ? static_cast<u64>(score - knee) * static_cast<u64>(band)
                       : 0;
  const u64 payload = (growing + flat) * 3u * sizeof(wfa::Offset);
  const u64 alloc_slack = static_cast<u64>(score + 1) * 3u * 8u;
  return payload + alloc_slack;
}

std::vector<TileSegment> TilingPlanner::plan(seq::ReadPairSpan batch,
                                             const std::vector<usize>& pairs,
                                             ThreadPool* pool) {
  std::vector<Node> frontier;
  frontier.reserve(pairs.size());
  for (const usize p : pairs) {
    Node root;
    root.segment.pair = p;
    root.pattern = batch.pattern(p);
    root.text = batch.text(p);
    root.segment.v1 = root.pattern.size();
    root.segment.h1 = root.text.size();
    root.score_cap =
        config_.score_cap != 0
            ? static_cast<i64>(config_.score_cap)
            : align::worst_case_score(config_.penalties, root.pattern.size(),
                                      root.text.size());
    frontier.push_back(root);
  }

  // A worker's parallel_for would run inline anyway; a one-worker pool
  // would only hand the level over and wait.
  const bool dispatch =
      pool != nullptr && pool->size() >= 2 && !pool->on_worker_thread();
  std::vector<usize> open;  // frontier indices of this level's open nodes
  std::vector<Expansion> expansions;
  std::vector<Node> next_frontier;
  while (true) {
    open.clear();
    for (usize i = 0; i < frontier.size(); ++i) {
      if (frontier[i].open) open.push_back(i);
    }
    if (open.empty()) break;
    expansions.assign(open.size(), Expansion{});
    const usize chunks = dispatch ? std::min(open.size(), pool->size()) : 1;
    while (aligners_.size() < chunks) {
      aligners_.push_back(std::make_unique<wfa::WfaAligner>(
          planner_options(config_.penalties, kernels_)));
    }

    // Chunks claim open nodes in frontier order and run every node they
    // claim; none claims another after a failure. Every node before the
    // first failing one has therefore run, whatever the pool width.
    std::atomic<usize> next{0};
    std::atomic<bool> failed{false};
    const auto drain = [&](usize chunk) {
      wfa::WfaAligner& aligner = *aligners_[chunk];
      while (!failed.load(std::memory_order_relaxed)) {
        const usize j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= open.size()) return;
        try {
          expansions[j] = expand(frontier[open[j]], aligner);
        } catch (...) {
          expansions[j].error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    };
    if (chunks == 1) {
      drain(0);
    } else {
      pool->parallel_for(chunks, [&](usize begin, usize end) {
        for (usize c = begin; c < end; ++c) drain(c);
      });
    }
    for (usize j = 0; j < open.size(); ++j) {
      if (!expansions[j].error) continue;
      try {
        std::rethrow_exception(expansions[j].error);
      } catch (const Error& e) {
        throw Error("cannot tile pair " +
                    std::to_string(frontier[open[j]].segment.pair) + ": " +
                    e.what());
      }
    }

    // Replace each expanded node in place by its segment or its halves.
    next_frontier.clear();
    usize j = 0;
    for (const Node& node : frontier) {
      if (!node.open) {
        next_frontier.push_back(node);
        continue;
      }
      const Expansion& x = expansions[j++];
      next_frontier.insert(next_frontier.end(), x.nodes, x.nodes + x.count);
    }
    frontier.swap(next_frontier);
  }

  std::vector<TileSegment> segments;
  segments.reserve(frontier.size());
  for (const Node& node : frontier) segments.push_back(node.segment);
  return segments;
}

TilingPlanner::Expansion TilingPlanner::expand(
    const Node& node, wfa::WfaAligner& aligner) const {
  const std::string_view pattern = node.pattern;
  const std::string_view text = node.text;
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const Component begin = node.segment.begin;
  const Component end = node.segment.end;
  const i32 o = config_.penalties.gap_open;
  const i32 e = config_.penalties.gap_extend;

  Expansion out;
  auto close = [&](i64 span_score) {
    out.nodes[0] = node;
    out.nodes[0].segment.span_score = span_score;
    out.nodes[0].open = false;
    out.count = 1;
    return out;
  };

  // Degenerate subproblem: one gap run, seam-charged (the DPU kernel
  // applies the same rule; keeping both in sync is what makes the
  // stitched score verification meaningful).
  if (plen == 0 || tlen == 0) {
    i64 score = 0;
    if (tlen > 0) {
      score = (begin == Component::kI ? 0 : o) + static_cast<i64>(tlen) * e;
    } else if (plen > 0) {
      score = (begin == Component::kD ? 0 : o) + static_cast<i64>(plen) * e;
    }
    return close(score);
  }

  const wfa::WfaAligner::Breakpoint bp =
      aligner.find_breakpoint(pattern, text, begin, end, node.score_cap);
  const bool fits =
      plen + tlen <= config_.max_segment_bases &&
      retained_arena_estimate(bp.total, plen, tlen) <=
          config_.arena_budget_bytes;
  if (fits) return close(bp.total);

  usize v = static_cast<usize>(bp.offset - bp.k);
  usize h = static_cast<usize>(bp.offset);
  Component comp = bp.comp;
  i64 left_cap = bp.score_forward;
  i64 right_cap = bp.score_reverse + (end == Component::kM ? 0 : o);
  const bool corner = (v == 0 && h == 0) || (v == plen && h == tlen);
  if (corner && bp.total == 0) {
    // A perfect-match subproblem meets at a corner; cut the pure diagonal
    // at its midpoint instead (any cell of a score-0 path is on the path).
    PIMWFA_CHECK(plen == tlen, "score-0 path of " << plen << "x" << tlen
                                   << " bases is not a diagonal");
    v = plen / 2;
    h = v;
    comp = Component::kM;
    left_cap = 0;
    right_cap = 0;
  } else if (corner) {
    // The bidirectional pass met at a corner: the path is cheap enough
    // that one direction's ring window swallowed it whole, so no interior
    // meeting point was reported. Recover a midpoint cut from the span
    // alignment itself - still O(s) memory through the kUltralow mode.
    const align::AlignmentResult span = aligner.align_span(
        pattern, text, align::AlignmentScope::kFull, begin, end);
    const std::string& ops = span.cigar.ops();
    const i32 x = config_.penalties.mismatch;
    const usize half = (plen + tlen) / 2;
    usize cv = 0, ch = 0;
    i64 left = 0;
    char prev = 0;
    for (usize j = 0; j < ops.size() && cv + ch < half; ++j) {
      const char op = ops[j];
      const bool opens = prev != op;
      switch (op) {
        case 'M':
          ++cv, ++ch;
          break;
        case 'X':
          ++cv, ++ch;
          left += x;
          break;
        case 'I':
          ++ch;
          left += e;
          if (opens && !(j == 0 && begin == Component::kI)) left += o;
          break;
        case 'D':
          ++cv;
          left += e;
          if (opens && !(j == 0 && begin == Component::kD)) left += o;
          break;
      }
      prev = op;
    }
    // Cutting inside a gap run hands the run to both halves: the left
    // span ends in (and pays the open of) the run's component, the right
    // begins in it seam-exempt - costs stay additive.
    comp = prev == 'I'   ? Component::kI
           : prev == 'D' ? Component::kD
                         : Component::kM;
    v = cv;
    h = ch;
    left_cap = left;
    right_cap = bp.total - left;
  }
  // The open half [v0, v1) x [h0, h1) of this subproblem.
  const auto open_half = [&](usize v0, usize v1, usize h0, usize h1,
                             Component from, Component to, i64 score_cap) {
    Node half;
    half.segment.pair = node.segment.pair;
    half.segment.v0 = node.segment.v0 + v0;
    half.segment.v1 = node.segment.v0 + v1;
    half.segment.h0 = node.segment.h0 + h0;
    half.segment.h1 = node.segment.h0 + h1;
    half.segment.begin = from;
    half.segment.end = to;
    half.pattern = pattern.substr(v0, v1 - v0);
    half.text = text.substr(h0, h1 - h0);
    half.score_cap = score_cap;
    return half;
  };
  out.nodes[0] = open_half(0, v, 0, h, begin, comp, left_cap);
  out.nodes[1] = open_half(v, plen, h, tlen, comp, end, right_cap);
  out.count = 2;
  return out;
}

align::AlignmentResult stitch_segments(
    const std::vector<TileSegment>& segments, usize seg_begin, usize seg_end,
    const std::vector<align::AlignmentResult>& segment_results, bool full) {
  align::AlignmentResult out;
  i64 expected = 0;
  usize ops = 0;
  for (usize s = seg_begin; s < seg_end; ++s) {
    expected += segments[s].span_score;
    ops += segments[s].pattern_length() + segments[s].text_length();
  }
  std::string stitched;
  if (full) stitched.reserve(ops);
  for (usize s = seg_begin; s < seg_end; ++s) {
    const align::AlignmentResult& r = segment_results[s];
    out.score += r.score;
    if (full) stitched += r.cigar.ops();
  }
  PIMWFA_CHECK(out.score == expected,
               "tiled pair stitches to score " << out.score
                   << ", planner expected " << expected);
  if (full) {
    out.cigar = seq::Cigar::from_ops(std::move(stitched));
    out.has_cigar = true;
  }
  return out;
}

}  // namespace pimwfa::pim
