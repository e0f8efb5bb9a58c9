#include "pim/dpu_wfa_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "seq/alphabet.hpp"
#include "wfa/rule.hpp"

namespace pimwfa::pim {
namespace {

using wfa::Component;
using wfa::Offset;

constexpr const KernelCosts& kCosts = kDefaultKernelCosts;

// The offset array of component `c` in a descriptor (0 when null).
u64 handle_of(const WfDesc& desc, Component c) {
  return c == Component::kM   ? desc.m_addr
         : c == Component::kI ? desc.i_addr
                              : desc.d_addr;
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
    penalties_ = {hdr_.mismatch, hdr_.gap_open, hdr_.gap_extend};

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
    begin_ = static_cast<Component>(lens[0] >> kPairCompShift);
    end_ = static_cast<Component>(lens[1] >> kPairCompShift);
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
    if (end_ == Component::kM) return m_done;
    const WfDesc desc = space_->read_desc(score);
    if (!desc.exists()) return false;
    const Offset off = space_->read_offset(handle_of(desc, end_), desc.lo,
                                           desc.hi, tlen_ - plen_);
    return wfa::offset_reachable(off) && off >= tlen_;
  }

  void compute_next(u64 score) {
    ctx_.account(kCosts.score_step);
    const i32 x = penalties_.mismatch;
    const i32 oe = penalties_.gap_open + penalties_.gap_extend;
    const i32 e = penalties_.gap_extend;

    const WfDesc sub_d =
        score >= static_cast<u64>(x) ? space_->read_desc(score - x) : WfDesc{};
    const WfDesc gap_d =
        score >= static_cast<u64>(oe) ? space_->read_desc(score - oe) : WfDesc{};
    const WfDesc ext_d =
        score >= static_cast<u64>(e) ? space_->read_desc(score - e) : WfDesc{};

    wfa::rule::RowRange range;
    if (sub_d.exists()) range.cover(sub_d.lo, sub_d.hi);
    if (gap_d.exists()) range.cover(gap_d.lo, gap_d.hi);
    if (ext_d.i_addr != 0 || ext_d.d_addr != 0) {
      range.cover(ext_d.lo, ext_d.hi);
    }
    range.clip(plen_, tlen_);
    if (range.empty()) {
      space_->write_desc(score, WfDesc{});  // unreachable score (hole)
      return;
    }

    const i32 lo = range.lo;
    const i32 hi = range.hi;
    WfDesc out;
    out.lo = lo;
    out.hi = hi;
    out.m_addr = space_->alloc_offsets(range.width());
    out.i_addr = space_->alloc_offsets(range.width());
    out.d_addr = space_->alloc_offsets(range.width());

    win(kWSub).bind(sub_d.m_addr, sub_d.lo, sub_d.hi, false);
    win(kWGapLo).bind(gap_d.m_addr, gap_d.lo, gap_d.hi, false);
    win(kWGapHi).bind(gap_d.m_addr, gap_d.lo, gap_d.hi, false);
    win(kWIExt).bind(ext_d.i_addr, ext_d.lo, ext_d.hi, false);
    win(kWDExt).bind(ext_d.d_addr, ext_d.lo, ext_d.hi, false);
    win(kWOutM).bind(out.m_addr, lo, hi, true);
    win(kWOutI).bind(out.i_addr, lo, hi, true);
    win(kWOutD).bind(out.d_addr, lo, hi, true);

    const u64 cell_cost =
        kCosts.cell + (space_->in_wram() ? 0 : kCosts.cell_mram_extra);
    for (i32 k = lo; k <= hi; ++k) {
      const wfa::rule::Cell c = wfa::rule::cell(
          win(kWSub).get(k), win(kWGapLo).get(k - 1), win(kWIExt).get(k - 1),
          win(kWGapHi).get(k + 1), win(kWDExt).get(k + 1), k, plen_, tlen_);
      win(kWOutI).set(k, c.i);
      win(kWOutD).set(k, c.d);
      win(kWOutM).set(k, c.m);
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
    // Reads each cell as a descriptor then an offset through MetaSpace,
    // and charges every step and CIGAR byte.
    struct Trace {
      Engine& engine;
      u8* cigar;
      usize pos;

      Offset at(Component c, i64 s, i32 k) {
        const WfDesc d = engine.space_->read_desc(static_cast<u64>(s));
        return engine.space_->read_offset(handle_of(d, c), d.lo, d.hi, k);
      }
      void step() { engine.ctx_.account(kCosts.backtrace_step); }
      void push(char op) {
        PIMWFA_HW_CHECK(pos > 0, "CIGAR buffer overflow in DPU backtrace");
        cigar[--pos] = static_cast<u8>(op);
        engine.ctx_.account(kCosts.cigar_byte);
      }
      [[noreturn]] void fail(const char* what) {
        throw HardwareFault(std::string("hardware fault: DPU ") + what);
      }
    } trace{*this, ctx_.wram_ptr(cigar_off_, cigar_cap_),
            static_cast<usize>(cigar_cap_)};
    wfa::rule::backtrace(trace, penalties_, static_cast<i64>(final_score),
                         plen_, tlen_, begin_, end_);

    // Compact the ops to the buffer start for an aligned DMA out.
    const usize len = static_cast<usize>(cigar_cap_) - trace.pos;
    std::memmove(trace.cigar, trace.cigar + trace.pos, len);
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
      // Degenerate pair: one all-gap alignment.
      score = static_cast<u64>(wfa::rule::gap_run_score(
          penalties_, static_cast<usize>(plen_), static_cast<usize>(tlen_),
          begin_));
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
      if (begin_ == Component::kI) {
        d0.i_addr = space_->alloc_offsets(1);
        OffsetWindow& gi = win(kWOutI);
        gi.bind(d0.i_addr, 0, 0, true);
        gi.set(0, 0);
        gi.flush();
      } else if (begin_ == Component::kD) {
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
  align::Penalties penalties_;
  i32 plen_ = 0;
  i32 tlen_ = 0;
  Component begin_ = Component::kM;  // seam components
  Component end_ = Component::kM;
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
