// The gap-affine WFA rule (Marco-Sola et al., Bioinformatics 2021), once
// for every engine that runs it. The host's WfaAligner, its row kernels
// (wfa/kernels.hpp) and the DPU kernel (pim/dpu_wfa_kernel.cpp) each apply
// it over their own wavefront storage, so host and DPU answers are equal
// by construction. For a score s and a diagonal k = h - v, the
// furthest-reaching offsets h are
//
//   I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1
//   D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1])
//   M[s][k] = max(M[s-x][k] + 1, I[s][k], D[s][k])
//
// each trimmed to the problem (h <= tlen, v <= plen) and then extended
// along matching diagonals, until the end component reaches offset tlen
// on diagonal tlen - plen. The backtrace walks those cells back from the
// end; its tie-break picks which of the optimal CIGARs comes out.
#pragma once

#include <algorithm>
#include <limits>

#include "align/penalties.hpp"
#include "common/types.hpp"
#include "wfa/wavefront.hpp"

namespace pimwfa::wfa::rule {

// Mismatch-predecessor candidate for M[s][k]: M[s-x][k] advanced one
// along the diagonal, trimmed against the sequence bounds.
inline Offset mismatch_candidate(Offset prev, i32 k, i32 plen,
                                 i32 tlen) noexcept {
  if (!offset_reachable(prev)) return kOffsetNone;
  const Offset off = prev + 1;
  if (off > tlen || off - k > plen) return kOffsetNone;
  return off;
}

// The three offsets of one diagonal at one score.
struct Cell {
  Offset m, i, d;
};

// Diagonal k of the recurrence from its five predecessor offsets, each
// kOffsetNone where its source row is null or does not cover the diagonal:
// sub = M[s-x][k], gap_lo = M[s-o-e][k-1], i_ext = I[s-e][k-1],
// gap_hi = M[s-o-e][k+1] and d_ext = D[s-e][k+1].
inline Cell cell(Offset sub, Offset gap_lo, Offset i_ext, Offset gap_hi,
                 Offset d_ext, i32 k, i32 plen, i32 tlen) noexcept {
  // I consumes one text base (h <= tlen), D one pattern base (v <= plen).
  Offset ins = std::max(gap_lo, i_ext);
  ins = offset_reachable(ins) && ins < tlen ? ins + 1 : kOffsetNone;
  Offset del = std::max(gap_hi, d_ext);
  if (!offset_reachable(del) || del - k > plen) del = kOffsetNone;
  sub = mismatch_candidate(sub, k, plen, tlen);
  return {std::max(sub, std::max(ins, del)), ins, del};
}

// The diagonal range of a row: one diagonal past each live source row on
// either side, clipped to the problem's diagonals [-plen, tlen]. A row
// with no live source, or one clipped away, is empty: the score is
// unreachable (a hole).
struct RowRange {
  i32 lo = std::numeric_limits<i32>::max();
  i32 hi = std::numeric_limits<i32>::min();

  void cover(i32 src_lo, i32 src_hi) noexcept {
    lo = std::min(lo, src_lo - 1);
    hi = std::max(hi, src_hi + 1);
  }
  void clip(i32 plen, i32 tlen) noexcept {
    lo = std::max(lo, -plen);
    hi = std::min(hi, tlen);
  }
  bool empty() const noexcept { return lo > hi; }
  usize width() const noexcept { return static_cast<usize>(hi - lo + 1); }
};

// Score of a span with an empty side: one gap run over the other side,
// free of gap_open when it continues the seam run the span begins in.
inline i64 gap_run_score(const align::Penalties& p, usize plen, usize tlen,
                         Component begin) noexcept {
  if (plen + tlen == 0) return 0;
  const bool seam = (tlen > 0 && begin == Component::kI) ||
                    (plen > 0 && begin == Component::kD);
  return (seam ? 0 : p.gap_open) + static_cast<i64>(plen + tlen) * p.gap_extend;
}

// Peak payload bytes of the retained wavefronts of a score-`score`
// alignment: 3 components x sizeof(Offset) per diagonal, widths growing
// 2s+1 until the band of plen + tlen + 1 diagonals caps them.
inline u64 retained_bytes(i64 score, usize plen, usize tlen) noexcept {
  const i64 band = static_cast<i64>(plen + tlen + 1);
  const i64 knee = std::min(score, (band - 1) / 2);
  const u64 growing = static_cast<u64>(knee + 1) * static_cast<u64>(knee + 1);
  const u64 flat = score > knee
                       ? static_cast<u64>(score - knee) * static_cast<u64>(band)
                       : 0;
  return (growing + flat) * 3u * sizeof(Offset);
}

// The backtrace of a score-`score` alignment of plen pattern bases against
// tlen text bases, entered in `begin` and left in `end`. It walks back
// from the end cell over the retained wavefronts through `trace`:
//
//   Offset at(Component c, i64 s, i32 k)  c's offset at score s on
//                                         diagonal k, or kOffsetNone;
//   void step()                           called once per step;
//   void push(char op)                    the ops, last first;
//   [[noreturn]] void fail(const char*)   a broken invariant.
//
// Tie-break: an M cell takes the furthest of its predecessors, and among
// equals the mismatch, then I, then D. An I or D cell takes the gap open
// when M[s-o-e] reaches it, else the extension. The reads happen in
// exactly that order and only when needed: the DPU's descriptor cache,
// and so its DMA counts, depend on it.
template <class Trace>
void backtrace(Trace& trace, const align::Penalties& p, i64 score, i32 plen,
               i32 tlen, Component begin, Component end) {
  const i32 x = p.mismatch;
  const i32 oe = p.gap_open + p.gap_extend;
  const i32 e = p.gap_extend;
  i64 s = score;
  i32 k = tlen - plen;
  Offset off = tlen;
  Component state = end;
  while (true) {
    trace.step();
    if (state == Component::kM) {
      const Offset sub =
          s >= x ? mismatch_candidate(trace.at(Component::kM, s - x, k), k,
                                      plen, tlen)
                 : kOffsetNone;
      const Offset ins = trace.at(Component::kI, s, k);
      const Offset del = trace.at(Component::kD, s, k);
      const Offset best = std::max(sub, std::max(ins, del));
      if (!offset_reachable(best)) {
        // Start of the alignment: the score-0 seed on diagonal 0 plus its
        // initial run of matches.
        if (s != 0 || k != 0) trace.fail("backtrace stuck");
        for (Offset i = 0; i < off; ++i) trace.push('M');
        return;
      }
      if (off < best) trace.fail("backtrace offset regression");
      for (Offset i = best; i < off; ++i) trace.push('M');
      off = best;
      if (sub == best) {
        trace.push('X');
        s -= x;
        --off;
      } else {
        state = ins == best ? Component::kI : Component::kD;
      }
    } else {
      // A gap op: I consumes a text base from diagonal k-1, D a pattern
      // base from diagonal k+1. The span seed I[0][0] or D[0][0] is the
      // entry state, not an op.
      const bool is_ins = state == Component::kI;
      if (state == begin && s == 0 && k == 0 && off == 0) return;
      trace.push(is_ins ? 'I' : 'D');
      const i32 src_k = is_ins ? k - 1 : k + 1;
      const Offset src_off = is_ins ? off - 1 : off;
      if (s >= oe && trace.at(Component::kM, s - oe, src_k) == src_off) {
        state = Component::kM;
        s -= oe;
      } else {
        if (s < e || trace.at(state, s - e, src_k) != src_off) {
          trace.fail(is_ins ? "backtrace broken I chain"
                            : "backtrace broken D chain");
        }
        s -= e;
      }
      k = src_k;
      off = src_off;
    }
  }
}

}  // namespace pimwfa::wfa::rule
