#include "wfa/wfa_aligner.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "wfa/rule.hpp"

namespace pimwfa::wfa {
namespace {

// True when wavefront row `set` completes a (sub)alignment that must end
// in `end`: that component's offset on the final diagonal reaches the end
// of the text.
bool hits_end(const WavefrontSet& set, Component end, i32 k_final, i32 tl) {
  const Wavefront& w = set.of(end);
  return w.exists && w.at(k_final) >= tl;
}

// Gap-affine cost of `cigar` under span-boundary charging: a CIGAR that
// opens with the gap run it entered through (begin == kI/kD) pays no
// gap_open for that leading run - the upstream half already paid it.
i64 span_cost(const seq::Cigar& cigar, const align::Penalties& p,
              Component begin) {
  i64 cost = cigar.affine_score(p.mismatch, p.gap_open, p.gap_extend);
  if (!cigar.empty()) {
    const char first = cigar.ops().front();
    if ((begin == Component::kI && first == 'I') ||
        (begin == Component::kD && first == 'D')) {
      cost -= p.gap_open;
    }
  }
  return cost;
}

// The retained rows, read for the backtrace, and the CIGAR it builds
// back to front.
struct RetainedTrace {
  const std::vector<WavefrontSet>& sets;
  seq::Cigar& cigar;

  Offset at(Component c, i64 s, i32 k) const {
    return sets[static_cast<usize>(s)].of(c).at(k);
  }
  void step() const noexcept {}
  void push(char op) { cigar.push(op); }
  [[noreturn]] void fail(const char* what) const {
    throw Error(std::string("WFA ") + what);
  }
};

}  // namespace

WfaAligner::WfaAligner(Options options)
    : options_(options),
      kernels_(options.kernels != nullptr ? *options.kernels
                                          : scalar_kernels()) {
  options_.penalties.validate();
  PIMWFA_ARG_CHECK(options_.max_score >= 0, "max_score must be >= 0");
  PIMWFA_ARG_CHECK(
      kernels_.match_run != nullptr && kernels_.compute_row != nullptr,
      "WfaKernels must provide both match_run and compute_row");
}

void WfaAligner::note_live_bytes() {
  const u64 live = retained_bytes_ + ring_.live_bytes + rev_ring_.live_bytes;
  if (live > counters_.peak_wavefront_bytes) {
    counters_.peak_wavefront_bytes = live;
  }
}

Wavefront WfaAligner::new_wavefront(i32 lo, i32 hi) {
  PIMWFA_DCHECK(lo <= hi);
  Wavefront wf;
  wf.exists = true;
  wf.lo = lo;
  wf.hi = hi;
  const usize width = static_cast<usize>(hi - lo + 1);
  // kWavefrontPad sentinel slots on each side let a vectorized compute_row
  // read one slot past either end of a source row without masked loads
  // (see kernels.hpp). The pad is implementation slack, so only the
  // payload counts toward allocated_bytes.
  Offset* base =
      allocator_.allocate_array<Offset>(width + 2 * kWavefrontPad);
  for (usize i = 0; i < kWavefrontPad; ++i) {
    base[i] = kOffsetNone;
    base[kWavefrontPad + width + i] = kOffsetNone;
  }
  wf.offsets = base + kWavefrontPad;
  counters_.allocated_bytes += width * sizeof(Offset);
  retained_bytes_ += width * sizeof(Offset);
  note_live_bytes();
  return wf;
}

bool WfaAligner::extend_and_check(Wavefront& m, std::string_view pattern,
                                  std::string_view text) {
  if (!m.exists) return false;
  const i32 plen = static_cast<i32>(pattern.size());
  const i32 tlen = static_cast<i32>(text.size());
  const i32 k_final = tlen - plen;
  bool done = false;
  for (i32 k = m.lo; k <= m.hi; ++k) {
    Offset off = m.offsets[k - m.lo];
    if (!offset_reachable(off)) continue;
    const i32 v = off - k;
    const usize remaining = static_cast<usize>(
        std::min(plen - v, tlen - static_cast<i32>(off)));
    const usize run =
        kernels_.match_run(pattern.data() + v, text.data() + off, remaining);
    off += static_cast<Offset>(run);
    counters_.extend_matches += run;
    ++counters_.extend_probes;
    m.offsets[k - m.lo] = off;
    if (k == k_final && off >= tlen) done = true;
  }
  return done;
}

template <class Row, class Bind>
void WfaAligner::step_row(i64 score, Row row, i32 pl, i32 tl,
                          WavefrontSet& out, Bind bind) {
  const align::Penalties& p = options_.penalties;
  const WavefrontSet* sub_row = row(score - p.mismatch);
  const WavefrontSet* gap_row = row(score - p.gap_open - p.gap_extend);
  const WavefrontSet* ext_row = row(score - p.gap_extend);
  const auto live = [](const WavefrontSet* set, Component c) {
    return set != nullptr && set->of(c).exists ? &set->of(c) : nullptr;
  };
  ComputeRowArgs args;
  args.m_sub = live(sub_row, Component::kM);
  args.m_gap = live(gap_row, Component::kM);
  args.i_ext = live(ext_row, Component::kI);
  args.d_ext = live(ext_row, Component::kD);
  rule::RowRange range;
  for (const Wavefront* w : {args.m_sub, args.m_gap, args.i_ext, args.d_ext}) {
    if (w != nullptr) range.cover(w->lo, w->hi);
  }
  range.clip(pl, tl);
  if (range.empty()) return;  // unreachable score (hole)

  bind(out, range.lo, range.hi);
  args.out_m = &out.m;
  args.out_i = &out.i;
  args.out_d = &out.d;
  args.lo = range.lo;
  args.hi = range.hi;
  args.pl = pl;
  args.tl = tl;
  kernels_.compute_row(args);
  counters_.computed_cells += 3 * static_cast<u64>(range.width());
  ++counters_.wavefront_sets;
}

void WfaAligner::compute_next(i64 score, usize plen, usize tlen) {
  sets_.emplace_back();  // sets_[score]; take source pointers only after this
  step_row(
      score,
      [&](i64 s) { return s >= 0 ? &sets_[static_cast<usize>(s)] : nullptr; },
      static_cast<i32>(plen), static_cast<i32>(tlen), sets_.back(),
      [&](WavefrontSet& out, i32 lo, i32 hi) {
        out.m = new_wavefront(lo, hi);
        out.i = new_wavefront(lo, hi);
        out.d = new_wavefront(lo, hi);
      });
}

Wavefront WfaAligner::bind_ring_front(ScoreRing& ring, RingSlot& slot,
                                      std::vector<Offset>& storage, i32 lo,
                                      i32 hi) {
  // Rebind a slot's component over its backing vector (padded like
  // new_wavefront so the kernel's overhang contract holds here too).
  const usize width = static_cast<usize>(hi - lo + 1);
  storage.resize(width + 2 * kWavefrontPad);
  for (usize i = 0; i < kWavefrontPad; ++i) {
    storage[i] = kOffsetNone;
    storage[kWavefrontPad + width + i] = kOffsetNone;
  }
  Wavefront wf;
  wf.exists = true;
  wf.lo = lo;
  wf.hi = hi;
  wf.offsets = storage.data() + kWavefrontPad;
  const u64 bytes = width * sizeof(Offset);
  slot.bytes += bytes;
  ring.live_bytes += bytes;
  counters_.allocated_bytes += bytes;
  note_live_bytes();
  return wf;
}

void WfaAligner::ring_release(ScoreRing& ring) {
  for (RingSlot& slot : ring.slots) {
    slot.set = WavefrontSet{};
    slot.bytes = 0;
  }
  ring.live_bytes = 0;
}

void WfaAligner::update_progress(ScoreRing& ring, const Wavefront& m) {
  if (!m.exists) return;
  for (i32 k = m.lo; k <= m.hi; ++k) {
    const Offset off = m.offsets[k - m.lo];
    if (!offset_reachable(off)) continue;
    const i64 anti = 2 * static_cast<i64>(off) - k;
    if (anti > ring.max_antidiag) ring.max_antidiag = anti;
  }
}

void WfaAligner::ring_init(ScoreRing& ring, std::string_view pattern,
                           std::string_view text, Component begin) {
  const i32 x = options_.penalties.mismatch;
  const i32 oe = options_.penalties.gap_open + options_.penalties.gap_extend;
  // Deepest lookback is max(x, o+e); one extra slot for the one being
  // written.
  ring.ring_size = static_cast<usize>(std::max(x, oe)) + 1;
  if (ring.slots.size() < ring.ring_size) ring.slots.resize(ring.ring_size);
  for (RingSlot& slot : ring.slots) {
    slot.set = WavefrontSet{};
    slot.bytes = 0;
  }
  ring.live_bytes = 0;
  ring.score = 0;
  ring.max_antidiag = -1;
  ring.pattern = pattern;
  ring.text = text;
  ring.begin = begin;

  // Score 0 seed; a kI/kD begin component also seeds its gap state (with
  // the free gap-to-M transition), so the seam run extends at gap_extend
  // cost without re-paying gap_open.
  RingSlot& slot = ring.slots[0];
  slot.set.m = bind_ring_front(ring, slot, slot.m, 0, 0);
  slot.set.m.set(0, 0);
  if (begin == Component::kI) {
    slot.set.i = bind_ring_front(ring, slot, slot.i, 0, 0);
    slot.set.i.set(0, 0);
  } else if (begin == Component::kD) {
    slot.set.d = bind_ring_front(ring, slot, slot.d, 0, 0);
    slot.set.d.set(0, 0);
  }
  extend_and_check(slot.set.m, pattern, text);
  update_progress(ring, slot.set.m);
}

const WavefrontSet* WfaAligner::ring_row(const ScoreRing& ring,
                                         i64 score) const {
  if (score < 0 || score > ring.score ||
      score <= ring.score - static_cast<i64>(ring.ring_size)) {
    return nullptr;
  }
  const WavefrontSet& set =
      ring.slots[static_cast<usize>(score) % ring.ring_size].set;
  return set.any_exists() ? &set : nullptr;
}

const WavefrontSet& WfaAligner::ring_step(ScoreRing& ring) {
  ++ring.score;
  ++counters_.score_steps;
  RingSlot& out_slot =
      ring.slots[static_cast<usize>(ring.score) % ring.ring_size];
  ring.live_bytes -= out_slot.bytes;
  out_slot.bytes = 0;
  out_slot.set = WavefrontSet{};  // clears the expired score-(ring) set

  // NOTE: sources can alias the output slot only if ring_size were too
  // small; ring_size > max lookback guarantees distinct slots.
  step_row(
      ring.score, [&](i64 s) { return ring_row(ring, s); },
      static_cast<i32>(ring.pattern.size()),
      static_cast<i32>(ring.text.size()), out_slot.set,
      [&](WavefrontSet& out, i32 lo, i32 hi) {
        out.m = bind_ring_front(ring, out_slot, out_slot.m, lo, hi);
        out.i = bind_ring_front(ring, out_slot, out_slot.i, lo, hi);
        out.d = bind_ring_front(ring, out_slot, out_slot.d, lo, hi);
      });
  // A hole leaves M null, which neither call touches.
  extend_and_check(out_slot.set.m, ring.pattern, ring.text);
  update_progress(ring, out_slot.set.m);
  return out_slot.set;
}

i64 WfaAligner::score_low_memory(std::string_view pattern,
                                 std::string_view text, i64 score_cap,
                                 Component begin, Component end) {
  const i32 tl = static_cast<i32>(text.size());
  const i32 k_final = tl - static_cast<i32>(pattern.size());
  ring_init(ring_, pattern, text, begin);
  bool done = hits_end(ring_.slots[0].set, end, k_final, tl);
  while (!done) {
    PIMWFA_CHECK(ring_.score < score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    done = hits_end(ring_step(ring_), end, k_final, tl);
  }
  const i64 score = ring_.score;
  ring_release(ring_);
  return score;
}

WfaAligner::Breakpoint WfaAligner::find_breakpoint(std::string_view pattern,
                                                   std::string_view text,
                                                   Component begin,
                                                   Component end,
                                                   i64 score_cap) {
  PIMWFA_ARG_CHECK(!pattern.empty() && !text.empty(),
                   "find_breakpoint requires non-empty pattern and text");
  const i32 pl = static_cast<i32>(pattern.size());
  const i32 tl = static_cast<i32>(text.size());
  const i32 o = options_.penalties.gap_open;
  const i32 k_final = tl - pl;
  const i64 total_antidiag = static_cast<i64>(pl) + tl;

  // The reverse direction aligns the reversed strings; its begin component
  // is this problem's end component. A kI/kD end seeds the reverse gap
  // state, which leaves the END run's gap_open uncharged by the reverse
  // direction - every candidate total below re-adds it (end_shift).
  rev_pattern_.assign(pattern.rbegin(), pattern.rend());
  rev_text_.assign(text.rbegin(), text.rend());
  ring_init(ring_, pattern, text, begin);
  ring_init(rev_ring_, rev_pattern_, rev_text_, end);

  const i64 end_shift = (end == Component::kM) ? 0 : o;
  Breakpoint best;
  best.total = std::numeric_limits<i64>::max();
  bool found = false;

  // Candidate totals for a meet of forward row sf against reverse row sr:
  // an M-meet costs sf+sr; an I/D-meet merges one gap run that both
  // directions opened, sf+sr-o. Meets live on complementary diagonals
  // (k + k_rev == k_final) where the offsets jointly span the text.
  auto scan_pair = [&](const WavefrontSet& fset, i64 sf,
                       const WavefrontSet& rset, i64 sr) {
    struct Cand {
      Component comp;
      const Wavefront* f;
      const Wavefront* r;
      i64 extra;
    };
    const Cand cands[3] = {
        {Component::kM, &fset.m, &rset.m, end_shift},
        {Component::kI, &fset.i, &rset.i, end_shift - o},
        {Component::kD, &fset.d, &rset.d, end_shift - o},
    };
    for (const Cand& c : cands) {
      const i64 total = sf + sr + c.extra;
      if (total >= best.total) continue;
      if (!c.f->exists || !c.r->exists) continue;
      const i32 k_lo = std::max(c.f->lo, k_final - c.r->hi);
      const i32 k_hi = std::min(c.f->hi, k_final - c.r->lo);
      for (i32 k = k_lo; k <= k_hi; ++k) {
        const Offset hf = c.f->at(k);
        if (!offset_reachable(hf)) continue;
        const Offset hr = c.r->at(k_final - k);
        if (!offset_reachable(hr)) continue;
        if (static_cast<i64>(hf) + hr < tl) continue;
        best.total = total;
        best.score_forward = sf;
        best.score_reverse = sr;
        best.k = k;
        best.offset = hf;
        best.comp = c.comp;
        found = true;
        break;
      }
    }
  };
  auto scan_new_row = [&](bool forward_new) {
    const ScoreRing& a = forward_new ? ring_ : rev_ring_;
    const ScoreRing& b = forward_new ? rev_ring_ : ring_;
    const WavefrontSet* row_a = ring_row(a, a.score);
    if (row_a == nullptr) return;
    const i64 sb_lo =
        std::max<i64>(0, b.score - static_cast<i64>(b.ring_size) + 1);
    for (i64 sb = sb_lo; sb <= b.score; ++sb) {
      const WavefrontSet* row_b = ring_row(b, sb);
      if (row_b == nullptr) continue;
      if (forward_new) {
        scan_pair(*row_a, a.score, *row_b, sb);
      } else {
        scan_pair(*row_b, sb, *row_a, a.score);
      }
    }
  };
  // Tiny problems: the two score-0 rows may already overlap.
  if (ring_.max_antidiag + rev_ring_.max_antidiag >= total_antidiag) {
    scan_new_row(true);
  }

  const i64 lookback = static_cast<i64>(ring_.ring_size) - 1;
  while (true) {
    // Cheapest total any not-yet-scanned (sf, sr) pair could still
    // produce: every future scan pairs a strictly newer row with a window
    // partner at most `lookback` behind the then-current opposite score.
    const i64 future_min = ring_.score + rev_ring_.score + 1 - lookback - o;
    if (found && future_min >= best.total) break;
    PIMWFA_CHECK(future_min <= score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    // Advance the direction that has made less anti-diagonal progress, so
    // an unbalanced optimal split (errors clustered in one half) still
    // meets inside the retained window.
    const bool forward = ring_.max_antidiag <= rev_ring_.max_antidiag;
    ring_step(forward ? ring_ : rev_ring_);
    if (ring_.max_antidiag + rev_ring_.max_antidiag >= total_antidiag) {
      scan_new_row(forward);
    }
  }
  ring_release(ring_);
  ring_release(rev_ring_);
  PIMWFA_CHECK(best.total <= score_cap,
               "WFA exceeded score cap " << score_cap << " (max_score option)");
  return best;
}

WfaAligner::UltralowSplit WfaAligner::ultralow_split(std::string_view pattern,
                                                     std::string_view text,
                                                     const Subproblem& sub) {
  const usize plen = sub.v1 - sub.v0;
  const usize tlen = sub.h1 - sub.h0;
  const Breakpoint bp =
      find_breakpoint(pattern.substr(sub.v0, plen), text.substr(sub.h0, tlen),
                      sub.begin, sub.end, sub.score_cap);
  UltralowSplit split;
  split.total = bp.total;
  const usize v = static_cast<usize>(bp.offset - bp.k);
  const usize h = static_cast<usize>(bp.offset);
  const bool corner = (v == 0 && h == 0) || (v == plen && h == tlen);
  split.base_case = corner || rule::retained_bytes(bp.total, plen, tlen) <=
                                  options_.ultralow_base_wavefront_bytes;
  if (split.base_case) return split;

  // The right half's own cost can exceed bp.score_reverse by the end-run's
  // gap_open that the reverse seeding exempted (see find_breakpoint).
  const i64 end_shift =
      (sub.end == Component::kM) ? 0 : options_.penalties.gap_open;
  Subproblem& left = split.halves[0];
  Subproblem& right = split.halves[1];
  left = right = sub;
  left.v1 = right.v0 = sub.v0 + v;
  left.h1 = right.h0 = sub.h0 + h;
  left.end = right.begin = bp.comp;
  left.score_cap = bp.score_forward;
  right.score_cap = bp.score_reverse + end_shift;
  return split;
}

align::AlignmentResult WfaAligner::ultralow_base_case(std::string_view pattern,
                                                      std::string_view text,
                                                      const Subproblem& sub,
                                                      i64 total) {
  align::AlignmentResult res = align_retained(
      pattern.substr(sub.v0, sub.v1 - sub.v0),
      text.substr(sub.h0, sub.h1 - sub.h0), align::AlignmentScope::kFull,
      sub.begin, sub.end, total);
  PIMWFA_CHECK(res.score == total,
               "kUltralow base case score " << res.score
                                            << " != bidirectional score "
                                            << total);
  return res;
}

i64 WfaAligner::ultralow_recurse(std::string_view pattern,
                                 std::string_view text, const Subproblem& sub,
                                 seq::Cigar& out) {
  const usize plen = sub.v1 - sub.v0;
  const usize tlen = sub.h1 - sub.h0;

  // Degenerate halves: a single gap run.
  if (plen == 0 || tlen == 0) {
    for (usize i = 0; i < tlen; ++i) out.push('I');
    for (usize i = 0; i < plen; ++i) out.push('D');
    return rule::gap_run_score(options_.penalties, plen, tlen, sub.begin);
  }

  const UltralowSplit split = ultralow_split(pattern, text, sub);
  if (split.base_case) {
    const align::AlignmentResult res =
        ultralow_base_case(pattern, text, sub, split.total);
    for (char op : res.cigar.ops()) out.push(op);
    return split.total;
  }
  const i64 left = ultralow_recurse(pattern, text, split.halves[0], out);
  const i64 right = ultralow_recurse(pattern, text, split.halves[1], out);
  PIMWFA_CHECK(left + right == split.total,
               "kUltralow halves cost " << left << "+" << right
                                        << " != bidirectional score "
                                        << split.total);
  return split.total;
}

align::AlignmentResult WfaAligner::align_retained(std::string_view pattern,
                                                  std::string_view text,
                                                  align::AlignmentScope scope,
                                                  Component begin,
                                                  Component end,
                                                  i64 score_cap) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  const i32 tl = static_cast<i32>(tlen);
  const i32 k_final = tl - static_cast<i32>(plen);
  allocator_.reset();
  sets_.clear();
  retained_bytes_ = 0;

  sets_.emplace_back();
  sets_[0].m = new_wavefront(0, 0);
  sets_[0].m.set(0, 0);
  if (begin == Component::kI) {
    sets_[0].i = new_wavefront(0, 0);
    sets_[0].i.set(0, 0);
  } else if (begin == Component::kD) {
    sets_[0].d = new_wavefront(0, 0);
    sets_[0].d.set(0, 0);
  }
  i64 score = 0;
  extend_and_check(sets_[0].m, pattern, text);
  bool done = hits_end(sets_[0], end, k_final, tl);
  while (!done) {
    ++score;
    ++counters_.score_steps;
    PIMWFA_CHECK(score <= score_cap,
                 "WFA exceeded score cap " << score_cap << " (max_score option)");
    compute_next(score, plen, tlen);
    WavefrontSet& set = sets_[static_cast<usize>(score)];
    if (set.m.exists) extend_and_check(set.m, pattern, text);
    done = hits_end(set, end, k_final, tl);
  }

  align::AlignmentResult result;
  result.score = score;
  if (scope == align::AlignmentScope::kFull) {
    RetainedTrace trace{sets_, result.cigar};
    rule::backtrace(trace, options_.penalties, score, static_cast<i32>(plen),
                    tl, begin, end);
    counters_.backtrace_ops += result.cigar.size();
    result.cigar.reverse();
    result.has_cigar = true;
  }
  counters_.max_score = std::max(counters_.max_score, static_cast<u64>(score));
  return result;
}

align::AlignmentResult WfaAligner::align(std::string_view pattern,
                                         std::string_view text,
                                         align::AlignmentScope scope) {
  return align_span(pattern, text, scope, Component::kM, Component::kM);
}

align::AlignmentResult WfaAligner::align_span(std::string_view pattern,
                                              std::string_view text,
                                              align::AlignmentScope scope,
                                              Component begin, Component end) {
  const usize plen = pattern.size();
  const usize tlen = text.size();
  ++counters_.alignments;

  align::AlignmentResult result;

  // Degenerate inputs: the alignment is a single gap (or nothing).
  if (plen == 0 || tlen == 0) {
    result.score = rule::gap_run_score(options_.penalties, plen, tlen, begin);
    if (scope == align::AlignmentScope::kFull) {
      seq::Cigar cigar;
      for (usize i = 0; i < tlen; ++i) cigar.push('I');
      for (usize i = 0; i < plen; ++i) cigar.push('D');
      result.cigar = std::move(cigar);
      result.has_cigar = true;
    }
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  const i64 score_cap =
      options_.max_score > 0
          ? options_.max_score
          : align::worst_case_score(options_.penalties, plen, tlen);

  if (options_.memory_mode == MemoryMode::kUltralow) {
    if (scope == align::AlignmentScope::kScoreOnly) {
      result.score = find_breakpoint(pattern, text, begin, end, score_cap).total;
    } else {
      seq::Cigar cigar;
      const i64 total = ultralow_recurse(
          pattern, text, {0, plen, 0, tlen, begin, end, score_cap}, cigar);
      // The stitched CIGAR is verified before it leaves: it must consume
      // exactly the inputs and cost exactly the bidirectional score.
      PIMWFA_CHECK(
          cigar.pattern_length() == plen && cigar.text_length() == tlen,
          "kUltralow stitched CIGAR consumes " << cigar.pattern_length() << "/"
                                               << cigar.text_length()
                                               << " of " << plen << "/"
                                               << tlen);
      const i64 cost = span_cost(cigar, options_.penalties, begin);
      PIMWFA_CHECK(cost == total, "kUltralow stitched CIGAR costs "
                                      << cost << ", bidirectional score is "
                                      << total);
      result.score = total;
      result.cigar = std::move(cigar);
      result.has_cigar = true;
    }
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  if (options_.memory_mode == MemoryMode::kLow &&
      scope == align::AlignmentScope::kScoreOnly) {
    result.score = score_low_memory(pattern, text, score_cap, begin, end);
    counters_.max_score =
        std::max(counters_.max_score, static_cast<u64>(result.score));
    return result;
  }

  return align_retained(pattern, text, scope, begin, end, score_cap);
}

}  // namespace pimwfa::wfa
