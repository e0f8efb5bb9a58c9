#include "pim/dpu_wfa_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "seq/alphabet.hpp"

namespace pimwfa::pim {
namespace {

using wfa::kOffsetNone;
using wfa::mismatch_candidate;
using wfa::Offset;

constexpr const KernelCosts& kCosts = kDefaultKernelCosts;

inline Offset max3(Offset a, Offset b, Offset c) noexcept {
  return std::max(a, std::max(b, c));
}

// Per-tasklet kernel engine: owns the WRAM buffers and the staging
// windows, processes this tasklet's share of the batch.
class Engine {
 public:
  Engine(upmem::TaskletCtx& ctx, wfa::MatchRunFn match_run)
      : ctx_(ctx), match_run_(match_run) {
    // Stage the batch header from MRAM address 0.
    const u64 hdr_off = ctx_.wram_alloc(sizeof(BatchHeader));
    ctx_.mram_read(0, hdr_off, sizeof(BatchHeader));
    std::memcpy(&hdr_, ctx_.wram_ptr(hdr_off, sizeof(BatchHeader)),
                sizeof(BatchHeader));
    PIMWFA_HW_CHECK(hdr_.magic == BatchHeader::kMagic,
                    "DPU launched without a batch in MRAM");

    const u64 free_before = ctx_.wram_free();
    pattern_pad_ = round_up_pow2(hdr_.max_pattern, 8);
    text_pad_ = round_up_pow2(hdr_.max_text, 8);
    if (hdr_.packed_sequences != 0) {
      field_pattern_pad_ = round_up_pow2((hdr_.max_pattern + 3) / 4, 8);
      field_text_pad_ = round_up_pow2((hdr_.max_text + 3) / 4, 8);
      packed_stage_off_ =
          ctx_.wram_alloc(std::max(field_pattern_pad_, field_text_pad_));
    } else {
      field_pattern_pad_ = pattern_pad_;
      field_text_pad_ = text_pad_;
    }
    pattern_off_ = ctx_.wram_alloc(pattern_pad_);
    text_off_ = ctx_.wram_alloc(text_pad_);
    stage_off_ = ctx_.wram_alloc(8);
    if (hdr_.full_alignment != 0) {
      cigar_cap_ = round_up_pow2(hdr_.max_pattern + hdr_.max_text, 8);
      cigar_off_ = ctx_.wram_alloc(cigar_cap_);
    }

    if (static_cast<MetadataPolicy>(hdr_.policy) == MetadataPolicy::kMram) {
      const u64 arena = hdr_.scratch_addr + ctx_.me() * hdr_.scratch_stride;
      space_.emplace(MetaSpace::make_mram(ctx_, arena, hdr_.scratch_stride,
                                          hdr_.max_score));
    } else {
      // Fair WRAM split: this tasklet's fixed buffers are representative
      // of what the tasklets after it will also need; leave room for them
      // and take an even share of the remainder as the metadata arena.
      const usize remaining_tasklets = ctx_.nr_tasklets() - ctx_.me();
      const u64 fixed_bytes = free_before - ctx_.wram_free();
      const u64 free_now = ctx_.wram_free();
      const u64 reserved_for_others = fixed_bytes * (remaining_tasklets - 1);
      PIMWFA_HW_CHECK(free_now > reserved_for_others,
                      "WRAM cannot hold fixed buffers for "
                          << ctx_.nr_tasklets() << " tasklets");
      const u64 arena_bytes = round_down_pow2(
          (free_now - reserved_for_others) / remaining_tasklets, 8);
      space_.emplace(MetaSpace::make_wram(ctx_, arena_bytes, hdr_.max_score));
    }

    // Staging windows (9 x 128 B in MRAM mode; no storage in WRAM mode).
    for (auto& window : windows_) window.emplace(*space_);
  }

  void run_pairs(u64 first, u64 count) {
    const u64 begin = std::min<u64>(first, hdr_.nr_pairs);
    const u64 end = begin + std::min<u64>(count, hdr_.nr_pairs - begin);
    for (u64 pair = begin + ctx_.me(); pair < end;
         pair += ctx_.nr_tasklets()) {
      align_pair(pair);
    }
  }

 private:
  // Window roles.
  enum : usize {
    kWSub = 0,     // M[s-x]
    kWGapLo = 1,   // M[s-o-e] probed at k-1
    kWGapHi = 2,   // M[s-o-e] probed at k+1
    kWIExt = 3,    // I[s-e] at k-1
    kWDExt = 4,    // D[s-e] at k+1
    kWOutM = 5,
    kWOutI = 6,
    kWOutD = 7,
    kWExt = 8,     // extension read-modify-write over M[s]
    kNumWindows = 9,
  };

  OffsetWindow& win(usize role) { return *windows_[role]; }

  void fetch_pair(u64 pair) {
    const u64 addr = hdr_.pairs_addr + pair * hdr_.pair_stride;
    ctx_.mram_read(addr, stage_off_, 8);
    u32 lens[2];
    std::memcpy(lens, ctx_.wram_ptr(stage_off_, 8), 8);
    // Tiled segments carry their seam components in the top length bits
    // (see layout.hpp); plain pairs decode to M/M.
    begin_ = lens[0] >> kPairCompShift;
    end_ = lens[1] >> kPairCompShift;
    plen_ = static_cast<i32>(lens[0] & kPairLenMask);
    tlen_ = static_cast<i32>(lens[1] & kPairLenMask);
    PIMWFA_HW_CHECK(static_cast<u32>(plen_) <= hdr_.max_pattern &&
                        static_cast<u32>(tlen_) <= hdr_.max_text,
                    "pair " << pair << " exceeds declared max lengths");
    if (hdr_.packed_sequences != 0) {
      fetch_packed(addr + 8, plen_, pattern_off_);
      fetch_packed(addr + 8 + field_pattern_pad_, tlen_, text_off_);
    } else {
      if (plen_ > 0) {
        ctx_.mram_read_large(addr + 8, pattern_off_,
                             round_up_pow2(static_cast<u64>(plen_), 8));
      }
      if (tlen_ > 0) {
        ctx_.mram_read_large(addr + 8 + field_pattern_pad_, text_off_,
                             round_up_pow2(static_cast<u64>(tlen_), 8));
      }
    }
    pattern_ = reinterpret_cast<const char*>(
        ctx_.wram_ptr(pattern_off_, pattern_pad_));
    text_ = reinterpret_cast<const char*>(ctx_.wram_ptr(text_off_, text_pad_));
  }

  // Packed-transfer mode: DMA the 2-bit field and unpack into the char
  // buffer (shift+mask+store per base on the DPU, ~3 instructions each).
  void fetch_packed(u64 field_addr, i32 bases, u64 char_buf_off) {
    if (bases <= 0) return;
    const u64 packed_bytes =
        round_up_pow2((static_cast<u64>(bases) + 3) / 4, 8);
    ctx_.mram_read_large(field_addr, packed_stage_off_, packed_bytes);
    const u8* packed = ctx_.wram_ptr(packed_stage_off_, packed_bytes);
    char* out = reinterpret_cast<char*>(
        ctx_.wram_ptr(char_buf_off, static_cast<usize>(bases)));
    for (i32 i = 0; i < bases; ++i) {
      out[i] = seq::decode_base(
          static_cast<u8>((packed[i >> 2] >> ((i & 3) * 2)) & 3u));
    }
    ctx_.account(static_cast<u64>(bases) * 3);
  }

  bool extend_and_check(u64 score) {
    const WfDesc desc = space_->read_desc(score);
    if (!desc.exists()) return false;
    OffsetWindow& m = win(kWExt);
    m.bind(desc.m_addr, desc.lo, desc.hi, /*writable=*/true);
    const i32 k_final = tlen_ - plen_;
    bool done = false;
    for (i32 k = desc.lo; k <= desc.hi; ++k) {
      Offset off = m.get(k);
      if (!wfa::offset_reachable(off)) continue;
      const i32 v = off - k;
      const i32 room = std::min(plen_ - v, tlen_ - off);
      usize matched = 0;
      if (room > 0) {
        matched =
            match_run_(pattern_ + v, text_ + off, static_cast<usize>(room));
      }
      off += static_cast<Offset>(matched);
      // The DPU compares byte by byte: charge the scalar loop's cost.
      ctx_.account(kCosts.extend_probe + matched * kCosts.extend_match);
      m.set(k, off);
      if (k == k_final && off >= tlen_) done = true;
    }
    m.flush();
    return done;
  }

  // Span termination: an end_ of I/D means the (sub)alignment must end in
  // that gap component - M reaching the corner does not terminate it.
  bool hits_end(u64 score, bool m_done) {
    if (end_ == 0) return m_done;
    const WfDesc desc = space_->read_desc(score);
    if (!desc.exists()) return false;
    const u64 handle = end_ == 1 ? desc.i_addr : desc.d_addr;
    const Offset off =
        space_->read_offset(handle, desc.lo, desc.hi, tlen_ - plen_);
    return wfa::offset_reachable(off) && off >= tlen_;
  }

  void compute_next(u64 score) {
    ctx_.account(kCosts.score_step);
    const i32 x = hdr_.mismatch;
    const i32 oe = hdr_.gap_open + hdr_.gap_extend;
    const i32 e = hdr_.gap_extend;

    const WfDesc sub_d =
        score >= static_cast<u64>(x) ? space_->read_desc(score - x) : WfDesc{};
    const WfDesc gap_d =
        score >= static_cast<u64>(oe) ? space_->read_desc(score - oe) : WfDesc{};
    const WfDesc ext_d =
        score >= static_cast<u64>(e) ? space_->read_desc(score - e) : WfDesc{};

    const bool has_sub = sub_d.m_addr != 0;
    const bool has_gap = gap_d.m_addr != 0;
    const bool has_i = ext_d.i_addr != 0;
    const bool has_d = ext_d.d_addr != 0;
    if (!has_sub && !has_gap && !has_i && !has_d) {
      space_->write_desc(score, WfDesc{});  // unreachable score (hole)
      return;
    }

    i32 lo = std::numeric_limits<i32>::max();
    i32 hi = std::numeric_limits<i32>::min();
    if (has_sub) {
      lo = std::min(lo, sub_d.lo - 1);
      hi = std::max(hi, sub_d.hi + 1);
    }
    if (has_gap) {
      lo = std::min(lo, gap_d.lo - 1);
      hi = std::max(hi, gap_d.hi + 1);
    }
    if (has_i || has_d) {
      lo = std::min(lo, ext_d.lo - 1);
      hi = std::max(hi, ext_d.hi + 1);
    }
    lo = std::max(lo, -plen_);
    hi = std::min(hi, tlen_);
    if (lo > hi) {
      space_->write_desc(score, WfDesc{});
      return;
    }

    const usize width = static_cast<usize>(hi - lo + 1);
    WfDesc out;
    out.lo = lo;
    out.hi = hi;
    out.m_addr = space_->alloc_offsets(width);
    out.i_addr = space_->alloc_offsets(width);
    out.d_addr = space_->alloc_offsets(width);

    win(kWSub).bind(sub_d.m_addr, sub_d.lo, sub_d.hi, false);
    win(kWGapLo).bind(gap_d.m_addr, gap_d.lo, gap_d.hi, false);
    win(kWGapHi).bind(gap_d.m_addr, gap_d.lo, gap_d.hi, false);
    win(kWIExt).bind(has_i ? ext_d.i_addr : 0, ext_d.lo, ext_d.hi, false);
    win(kWDExt).bind(has_d ? ext_d.d_addr : 0, ext_d.lo, ext_d.hi, false);
    win(kWOutM).bind(out.m_addr, lo, hi, true);
    win(kWOutI).bind(out.i_addr, lo, hi, true);
    win(kWOutD).bind(out.d_addr, lo, hi, true);

    const u64 cell_cost =
        kCosts.cell + (space_->in_wram() ? 0 : kCosts.cell_mram_extra);
    for (i32 k = lo; k <= hi; ++k) {
      Offset ins = std::max(win(kWGapLo).get(k - 1), win(kWIExt).get(k - 1));
      if (wfa::offset_reachable(ins)) {
        ++ins;
        if (ins > tlen_) ins = kOffsetNone;
      } else {
        ins = kOffsetNone;
      }
      Offset del = std::max(win(kWGapHi).get(k + 1), win(kWDExt).get(k + 1));
      if (!wfa::offset_reachable(del) || del - k > plen_) del = kOffsetNone;
      const Offset sub = mismatch_candidate(win(kWSub).get(k), k, plen_, tlen_);
      Offset best = max3(sub, ins, del);
      if (!wfa::offset_reachable(best)) best = kOffsetNone;
      win(kWOutI).set(k, ins);
      win(kWOutD).set(k, del);
      win(kWOutM).set(k, best);
      ctx_.account(cell_cost);
    }
    win(kWOutM).flush();
    win(kWOutI).flush();
    win(kWOutD).flush();
    space_->write_desc(score, out);
  }

  // Backtrace into the WRAM CIGAR buffer, written back-to-front so the
  // final ops end up in forward order. Returns the op count.
  usize backtrace(u64 final_score) {
    const i32 x = hdr_.mismatch;
    const i32 oe = hdr_.gap_open + hdr_.gap_extend;
    const i32 e = hdr_.gap_extend;
    u8* cigar = ctx_.wram_ptr(cigar_off_, cigar_cap_);
    usize pos = static_cast<usize>(cigar_cap_);
    auto emit = [&](char op) {
      PIMWFA_HW_CHECK(pos > 0, "CIGAR buffer overflow in DPU backtrace");
      cigar[--pos] = static_cast<u8>(op);
      ctx_.account(kCosts.cigar_byte);
    };

    enum class State { kM, kI, kD };
    u64 s = final_score;
    i32 k = tlen_ - plen_;
    Offset off = tlen_;
    State state = end_ == 1 ? State::kI : end_ == 2 ? State::kD : State::kM;
    auto comp_at = [&](u64 score, char comp, i32 kk) -> Offset {
      const WfDesc d = space_->read_desc(score);
      const u64 handle =
          comp == 'm' ? d.m_addr : (comp == 'i' ? d.i_addr : d.d_addr);
      return space_->read_offset(handle, d.lo, d.hi, kk);
    };

    while (true) {
      ctx_.account(kCosts.backtrace_step);
      if (state == State::kM) {
        const Offset sub =
            s >= static_cast<u64>(x)
                ? mismatch_candidate(comp_at(s - x, 'm', k), k, plen_, tlen_)
                : kOffsetNone;
        const Offset ins = comp_at(s, 'i', k);
        const Offset del = comp_at(s, 'd', k);
        const Offset best = max3(sub, ins, del);
        if (!wfa::offset_reachable(best)) {
          PIMWFA_HW_CHECK(s == 0 && k == 0, "DPU backtrace stuck");
          for (Offset i = 0; i < off; ++i) emit('M');
          break;
        }
        PIMWFA_HW_CHECK(off >= best, "DPU backtrace offset regression");
        for (Offset i = best; i < off; ++i) emit('M');
        off = best;
        if (sub == best) {
          emit('X');
          s -= static_cast<u64>(x);
          --off;
        } else if (ins == best) {
          state = State::kI;
        } else {
          state = State::kD;
        }
      } else if (state == State::kI) {
        // The span seed I[0][0] is the entry state, not an operation.
        if (begin_ == 1 && s == 0 && k == 0 && off == 0) break;
        emit('I');
        const Offset open_src =
            s >= static_cast<u64>(oe) ? comp_at(s - oe, 'm', k - 1)
                                      : kOffsetNone;
        if (open_src == off - 1) {
          state = State::kM;
          s -= static_cast<u64>(oe);
        } else {
          const Offset ext_src = s >= static_cast<u64>(e)
                                     ? comp_at(s - e, 'i', k - 1)
                                     : kOffsetNone;
          PIMWFA_HW_CHECK(ext_src == off - 1, "DPU backtrace broken I chain");
          s -= static_cast<u64>(e);
        }
        --off;
        --k;
      } else {
        if (begin_ == 2 && s == 0 && k == 0 && off == 0) break;
        emit('D');
        const Offset open_src =
            s >= static_cast<u64>(oe) ? comp_at(s - oe, 'm', k + 1)
                                      : kOffsetNone;
        if (open_src == off) {
          state = State::kM;
          s -= static_cast<u64>(oe);
        } else {
          const Offset ext_src = s >= static_cast<u64>(e)
                                     ? comp_at(s - e, 'd', k + 1)
                                     : kOffsetNone;
          PIMWFA_HW_CHECK(ext_src == off, "DPU backtrace broken D chain");
          s -= static_cast<u64>(e);
        }
        ++k;
      }
    }

    // Compact the ops to the buffer start for an aligned DMA out.
    const usize len = static_cast<usize>(cigar_cap_) - pos;
    std::memmove(cigar, cigar + pos, len);
    ctx_.account(len * 2);
    return len;
  }

  void align_pair(u64 pair) {
    ctx_.account(kCosts.per_pair);
    fetch_pair(pair);
    space_->reset();

    u64 score = 0;
    usize cigar_len = 0;

    if (plen_ == 0 || tlen_ == 0) {
      // Degenerate pair: one all-gap alignment. A tiled segment that
      // continues its begin component's seam run pays no gap_open (the
      // upstream segment already did).
      const i32 gap = plen_ + tlen_;
      const bool seam = (tlen_ > 0 && begin_ == 1) ||
                        (plen_ > 0 && begin_ == 2);
      score = gap == 0 ? 0
                       : (seam ? 0 : static_cast<u64>(hdr_.gap_open)) +
                             static_cast<u64>(gap) * hdr_.gap_extend;
      if (hdr_.full_alignment != 0) {
        u8* cigar = ctx_.wram_ptr(cigar_off_, cigar_cap_);
        for (i32 i = 0; i < tlen_; ++i) cigar[cigar_len++] = 'I';
        for (i32 i = 0; i < plen_; ++i) cigar[cigar_len++] = 'D';
        ctx_.account(cigar_len * kCosts.cigar_byte);
      }
    } else {
      // Score-0 seed on diagonal 0; a kI/kD begin also seeds its gap
      // state (free gap-to-M transition) so the seam run extends at
      // gap_extend cost without re-paying gap_open.
      WfDesc d0;
      d0.lo = 0;
      d0.hi = 0;
      d0.m_addr = space_->alloc_offsets(1);
      OffsetWindow& seed = win(kWOutM);
      seed.bind(d0.m_addr, 0, 0, true);
      seed.set(0, 0);
      seed.flush();
      if (begin_ == 1) {
        d0.i_addr = space_->alloc_offsets(1);
        OffsetWindow& gi = win(kWOutI);
        gi.bind(d0.i_addr, 0, 0, true);
        gi.set(0, 0);
        gi.flush();
      } else if (begin_ == 2) {
        d0.d_addr = space_->alloc_offsets(1);
        OffsetWindow& gd = win(kWOutD);
        gd.bind(d0.d_addr, 0, 0, true);
        gd.set(0, 0);
        gd.flush();
      }
      space_->write_desc(0, d0);

      bool done = hits_end(0, extend_and_check(0));
      while (!done) {
        ++score;
        PIMWFA_HW_CHECK(score <= hdr_.max_score,
                        "WFA exceeded batch score cap " << hdr_.max_score);
        compute_next(score);
        done = hits_end(score, extend_and_check(score));
      }
      if (hdr_.full_alignment != 0) cigar_len = backtrace(score);
    }

    // Result record: [score, cigar_len] then the ops.
    const u64 result_addr = hdr_.results_addr + pair * hdr_.result_stride;
    u32 head[2] = {static_cast<u32>(score), static_cast<u32>(cigar_len)};
    std::memcpy(ctx_.wram_ptr(stage_off_, 8), head, 8);
    ctx_.mram_write(stage_off_, result_addr, 8);
    if (hdr_.full_alignment != 0 && cigar_len > 0) {
      ctx_.mram_write_large(cigar_off_, result_addr + 8,
                            round_up_pow2(cigar_len, 8));
    }
  }

  upmem::TaskletCtx& ctx_;
  wfa::MatchRunFn match_run_;
  BatchHeader hdr_{};
  u64 pattern_off_ = 0;
  u64 text_off_ = 0;
  u64 stage_off_ = 0;
  u64 cigar_off_ = 0;
  u64 pattern_pad_ = 0;
  u64 text_pad_ = 0;
  u64 field_pattern_pad_ = 0;
  u64 field_text_pad_ = 0;
  u64 packed_stage_off_ = 0;
  u64 cigar_cap_ = 0;
  i32 plen_ = 0;
  i32 tlen_ = 0;
  u32 begin_ = 0;  // seam components (0 = M, 1 = I, 2 = D)
  u32 end_ = 0;
  const char* pattern_ = nullptr;
  const char* text_ = nullptr;
  std::optional<MetaSpace> space_;
  std::optional<OffsetWindow> windows_[kNumWindows];
};

}  // namespace

void WfaDpuKernel::run(upmem::TaskletCtx& ctx) {
  Engine engine(ctx, match_run_);
  engine.run_pairs(first_pair_, pair_count_);
}

}  // namespace pimwfa::pim
