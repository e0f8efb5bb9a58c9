#include "pim/tiling.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "wfa/rule.hpp"

namespace pimwfa::pim {

using wfa::Component;
using Subproblem = wfa::WfaAligner::Subproblem;

// An entry of the planning frontier: an open subproblem of the trace's
// `path`-th pair, or, once closed, a base case (with its optimal score) or
// a gap run (a subproblem with an empty side).
struct TilingPlanner::Node {
  enum class State : u8 { kOpen, kBaseCase, kGapRun };
  usize path = 0;
  std::string_view pattern, text;  // the whole pair
  Subproblem sub;
  State state = State::kOpen;
  i64 total = 0;
};

// What expanding one open node produced: its split step, or an error.
struct TilingPlanner::Expansion {
  wfa::WfaAligner::UltralowSplit split;
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

[[noreturn]] void rethrow_for_pair(usize pair,
                                   const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    throw Error("cannot tile pair " + std::to_string(pair) + ": " + e.what());
  }
}

// A path's ops as maximal runs of one op: (op, end), a run ending where
// the next begins.
using Runs = std::vector<std::pair<char, usize>>;

void append_run(Runs& runs, char op, usize n) {
  if (n == 0) return;
  const usize end = (runs.empty() ? 0 : runs.back().second) + n;
  if (!runs.empty() && runs.back().first == op) {
    runs.back().second = end;
  } else {
    runs.emplace_back(op, end);
  }
}

usize run_begin(const Runs& runs, usize r) {
  return r == 0 ? 0 : runs[r - 1].second;
}

// A position along a path: before op `op`, which lies in run `run`, at
// pattern offset v and text offset h, having cost `cost` (gap_open charged
// where a run opens).
struct Cursor {
  usize run = 0;
  usize op = 0;
  usize v = 0, h = 0;
  i64 cost = 0;

  usize bases() const noexcept { return v + h; }
};

// `at` advanced over the next `n` ops, all in its run.
Cursor take(Cursor at, usize n, const Runs& runs, const align::Penalties& p) {
  if (n == 0) return at;
  const auto [op, end] = runs[at.run];
  if (op != 'I') at.v += n;
  if (op != 'D') at.h += n;
  if (op == 'X') at.cost += static_cast<i64>(n) * p.mismatch;
  if (op == 'I' || op == 'D') {
    at.cost += static_cast<i64>(n) * p.gap_extend +
               (at.op == run_begin(runs, at.run) ? p.gap_open : 0);
  }
  at.op += n;
  if (at.op == end) ++at.run;
  return at;
}

// The component the path is in at `at`, past its first op: that of its
// last op. A cut there hands a gap run on to the next segment, which
// continues it without paying its gap_open again.
Component component_at(const Cursor& at, const Runs& runs) {
  const bool inside = at.run < runs.size() && at.op > run_begin(runs, at.run);
  switch (runs[inside ? at.run : at.run - 1].first) {
    case 'I':
      return Component::kI;
    case 'D':
      return Component::kD;
    default:
      return Component::kM;
  }
}

}  // namespace

TilingPlanner::TilingPlanner(TilingConfig config,
                             const wfa::WfaKernels& kernels)
    : config_(config), kernels_(kernels) {
  PIMWFA_ARG_CHECK(config_.max_segment_bases >= kMinSegmentBases,
                   "tiling needs max_segment_bases >= " << kMinSegmentBases);
  PIMWFA_ARG_CHECK(config_.slots >= 1, "tiling needs at least one slot");
}

u64 TilingPlanner::retained_arena_estimate(i64 score, usize plen,
                                           usize tlen) {
  // The DPU kernel's MetaSpace consumption: the retained payload plus up
  // to 8 bytes of allocation granularity per array, 3 arrays per score.
  return wfa::rule::retained_bytes(score, plen, tlen) +
         static_cast<u64>(score + 1) * 3u * 8u;
}

void TilingPlanner::trace(seq::ReadPairSpan batch,
                          const std::vector<usize>& pairs, ThreadPool* pool) {
  const auto node_of = [](usize path, std::string_view pattern,
                          std::string_view text, const Subproblem& sub) {
    Node node;
    node.path = path;
    node.pattern = pattern;
    node.text = text;
    node.sub = sub;
    if (sub.v0 == sub.v1 || sub.h0 == sub.h1) node.state = Node::State::kGapRun;
    return node;
  };
  std::vector<Node> frontier;
  frontier.reserve(pairs.size());
  paths_.resize(pairs.size());
  for (usize i = 0; i < pairs.size(); ++i) {
    Path& path = paths_[i];
    const std::string_view pattern = batch.pattern(pairs[i]);
    const std::string_view text = batch.text(pairs[i]);
    path.pair = pairs[i];
    path.plen = pattern.size();
    path.tlen = text.size();
    path.total = -1;
    Subproblem root;
    root.v1 = path.plen;
    root.h1 = path.tlen;
    root.score_cap =
        config_.score_cap != 0
            ? static_cast<i64>(config_.score_cap)
            : align::worst_case_score(config_.penalties, path.plen, path.tlen);
    frontier.push_back(node_of(i, pattern, text, root));
  }
  if (aligners_.empty()) {
    aligners_.push_back(std::make_unique<wfa::WfaAligner>(
        planner_options(config_.penalties, kernels_)));
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
      if (frontier[i].state == Node::State::kOpen) open.push_back(i);
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
        const Node& node = frontier[open[j]];
        try {
          expansions[j].split =
              aligner.ultralow_split(node.pattern, node.text, node.sub);
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
      if (expansions[j].error) {
        rethrow_for_pair(paths_[frontier[open[j]].path].pair,
                         expansions[j].error);
      }
    }

    // Close each base case in place and replace each split node by its
    // halves. Only a root spans its whole pair: its score is the pair's.
    next_frontier.clear();
    usize j = 0;
    for (const Node& node : frontier) {
      if (node.state != Node::State::kOpen) {
        next_frontier.push_back(node);
        continue;
      }
      const wfa::WfaAligner::UltralowSplit& split = expansions[j++].split;
      Path& path = paths_[node.path];
      if (node.sub.v1 - node.sub.v0 == path.plen &&
          node.sub.h1 - node.sub.h0 == path.tlen) {
        path.total = split.total;
      }
      if (split.base_case) {
        next_frontier.push_back(node);
        next_frontier.back().state = Node::State::kBaseCase;
        next_frontier.back().total = split.total;
      } else {
        for (const Subproblem& half : split.halves) {
          next_frontier.push_back(
              node_of(node.path, node.pattern, node.text, half));
        }
      }
    }
    frontier.swap(next_frontier);
  }

  // The paths: every closed node's ops, in frontier order, with the base
  // cases aligned on the first aligner.
  wfa::WfaAligner& aligner = *aligners_.front();
  auto node = frontier.cbegin();
  for (usize i = 0; i < paths_.size(); ++i) {
    Path& path = paths_[i];
    Runs& runs = path.runs;
    runs.clear();
    path.nodes.clear();
    try {
      for (; node != frontier.cend() && node->path == i; ++node) {
        const Subproblem& sub = node->sub;
        if (node->state == Node::State::kGapRun) {
          append_run(runs, 'I', sub.h1 - sub.h0);
          append_run(runs, 'D', sub.v1 - sub.v0);
        } else {
          const align::AlignmentResult base = aligner.ultralow_base_case(
              node->pattern, node->text, sub, node->total);
          const std::string& ops = base.cigar.ops();
          for (usize j = 0; j < ops.size();) {
            usize run_end = j + 1;
            while (run_end < ops.size() && ops[run_end] == ops[j]) ++run_end;
            append_run(runs, ops[j], run_end - j);
            j = run_end;
          }
        }
        path.nodes.emplace_back(runs.empty() ? 0 : runs.back().second, sub.end);
      }
      // The path must cost the pair's optimal score (a gap-run pair has
      // no other path).
      Cursor end;
      while (end.run < runs.size()) {
        end = take(end, runs[end.run].second - end.op, runs, config_.penalties);
      }
      PIMWFA_CHECK(path.total < 0 || end.cost == path.total,
                   "traced path costs " << end.cost << ", optimal score is "
                                        << path.total);
    } catch (...) {
      rethrow_for_pair(path.pair, std::current_exception());
    }
  }
}

std::vector<TileSegment> TilingPlanner::cut(u64 arena_budget_bytes) const {
  PIMWFA_ARG_CHECK(arena_budget_bytes > 0,
                   "tiling needs a positive arena budget");
  std::vector<TileSegment> segments;
  for (const Path& path : paths_) cut_path(path, arena_budget_bytes, segments);
  return segments;
}

void TilingPlanner::cut_path(const Path& path, u64 arena_budget_bytes,
                             std::vector<TileSegment>& out) const {
  const align::Penalties& penalties = config_.penalties;
  const Runs& runs = path.runs;
  const auto fits = [&](const Cursor& from, const Cursor& to) {
    const usize plen = to.v - from.v;
    const usize tlen = to.h - from.h;
    return plen + tlen <= config_.max_segment_bases &&
           retained_arena_estimate(to.cost - from.cost, plen, tlen) <=
               arena_budget_bytes;
  };
  // The most ops, up to `limit`, the segment [from, at) can take from the
  // run at `at` and still fit (a segment that fits fits when shortened).
  const auto most = [&](const Cursor& from, const Cursor& at, usize limit) {
    if (fits(from, take(at, limit, runs, penalties))) return limit;
    usize lo = 0;
    usize hi = limit - 1;
    while (lo < hi) {
      const usize mid = hi - (hi - lo) / 2;
      if (fits(from, take(at, mid, runs, penalties))) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  // The fewest segments that fit each closed node: fill greedily.
  const usize nodes = path.nodes.size();
  std::vector<usize> counts(nodes, 1);
  std::vector<usize> lengths(nodes, 0);  // bases per node
  Cursor at;
  for (usize n = 0; n < nodes; ++n) {
    const usize node_end = path.nodes[n].first;
    const usize node_bases = at.bases();
    Cursor from = at;
    while (at.op < node_end) {
      const usize k =
          most(from, at, std::min(runs[at.run].second, node_end) - at.op);
      if (k == 0) {
        PIMWFA_CHECK(at.op > from.op && fits(at, take(at, 1, runs, penalties)),
                     "cannot tile pair " << path.pair << ": column " << at.op
                                         << " alone outgrows the segment "
                                            "budgets");
        ++counts[n];
        from = at;
      }
      at = take(at, k, runs, penalties);
    }
    lengths[n] = at.bases() - node_bases;
  }

  // A path that fits stays one segment. Otherwise round the count up to
  // fill every slot, and share the extra segments out one at a time to the
  // node whose segments are longest on average.
  usize fewest = 0;
  for (const usize c : counts) fewest += c;
  if (fewest > 1) {
    const usize slots = config_.slots;
    const usize rounded = (fewest + slots - 1) / slots * slots;
    const usize finest = (path.plen + path.tlen) / kMinSegmentBases;
    for (usize extra = std::min(rounded, std::max(fewest, finest)) - fewest;
         extra > 0; --extra) {
      usize longest = 0;
      for (usize n = 1; n < nodes; ++n) {
        if (lengths[n] * counts[longest] > lengths[longest] * counts[n]) {
          longest = n;
        }
      }
      ++counts[longest];
    }
  }

  // Space each node's cuts evenly by bases: a segment ends before the op
  // that would pass its target, or early where it would outgrow the
  // budgets. Cuts at node boundaries take the nodes' components, cuts
  // inside a node the path's.
  const auto emit = [&](const Cursor& from, const Cursor& to, Component begin,
                        Component end) {
    out.push_back({path.pair, from.v, to.v, from.h, to.h, begin, end,
                   to.cost - from.cost});
  };
  at = Cursor{};
  Component begin = Component::kM;
  for (usize n = 0; n < nodes; ++n) {
    const usize node_end = path.nodes[n].first;
    const usize node_bases = at.bases();
    const usize c = counts[n];
    const auto target = [&](usize k) {
      return node_bases + (k * lengths[n] + c / 2) / c;
    };
    usize next = 1;  // the next target; never behind `at`
    Cursor from = at;
    while (at.op < node_end) {
      usize k = 1;  // an empty segment takes the next op whatever the target
      if (at.op > from.op) {
        const char op = runs[at.run].first;
        usize limit = std::min(runs[at.run].second, node_end) - at.op;
        if (next < c) {
          const usize width = op == 'I' || op == 'D' ? 1 : 2;
          limit = std::min(limit, (target(next) - at.bases()) / width);
        }
        k = most(from, at, limit);
        if (k == 0) {
          const Component seam = component_at(at, runs);
          emit(from, at, begin, seam);
          begin = seam;
          from = at;
          continue;
        }
      }
      at = take(at, k, runs, penalties);
      while (next < c && target(next) < at.bases()) ++next;
    }
    emit(from, at, begin, path.nodes[n].second);
    begin = path.nodes[n].second;
  }
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
