// AVX2 kernels. This translation unit is the only one compiled with
// -mavx2 (see cpu/simd/CMakeLists.txt); nothing here may be called
// unless runtime dispatch confirmed the host supports it.
#include "cpu/simd/kernel_table.hpp"

#if PIMWFA_SIMD_LEVEL >= 1

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace pimwfa::cpu::simd {

usize match_run_avx2(const char* a, const char* b, usize max) {
  usize i = 0;
  while (i + 32 <= max) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const u32 eq =
        static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFFFFFu) return i + std::countr_one(eq);
    i += 32;
  }
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

u32 mismatch_mask_avx2(const char* a, const char* b, usize len) {
  if (len == 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    const u32 eq =
        static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    return ~eq;
  }
  u32 mask = 0;
  for (usize i = 0; i < len; ++i) {
    mask |= static_cast<u32>(a[i] != b[i]) << i;
  }
  return mask;
}

namespace {

// Offsets of a source row at diagonals [k0+shift, k0+7+shift]. Null rows
// read as the sentinel; real rows rely on the kWavefrontPad sentinel
// slots around [lo, hi] (see wfa/kernels.hpp), so the +-1 shifted load is
// in-bounds and reads kOffsetNone outside the live range.
inline __m256i load_row(const wfa::Wavefront* w, i32 k0, i32 shift,
                        __m256i none) {
  if (w == nullptr) return none;
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      w->offsets + (k0 - w->lo) + shift));
}

}  // namespace

// The lane-wise copy of wfa::rule::cell (wfa/rule.hpp), which test_simd
// holds to the rule cell by cell.
void compute_row_avx2(const wfa::ComputeRowArgs& args) {
  // Vector blocks must stay where every live source row's +-1 shifted
  // load lands inside its padded allocation: k0 >= src->lo - (pad - 1)
  // and k0 + 8 <= src->hi + pad, i.e. k0 <= src->hi + pad - 8. Stores
  // write real cells only, so blocks also need k0 + 7 <= args.hi.
  constexpr i32 kLanes = 8;
  const i32 pad = static_cast<i32>(wfa::kWavefrontPad);
  i32 first = args.lo;
  i32 last = args.hi - (kLanes - 1);
  bool any_source = false;
  for (const wfa::Wavefront* src :
       {args.m_sub, args.m_gap, args.i_ext, args.d_ext}) {
    if (src == nullptr) continue;
    any_source = true;
    first = std::max(first, src->lo - (pad - 1));
    last = std::min(last, src->hi + pad - kLanes);
  }
  if (!any_source || last < first) {
    wfa::compute_row_scalar(args);
    return;
  }

  if (first > args.lo) {
    wfa::ComputeRowArgs head = args;
    head.hi = first - 1;
    wfa::compute_row_scalar(head);
  }

  const __m256i none = _mm256_set1_epi32(wfa::kOffsetNone);
  const __m256i minus1 = _mm256_set1_epi32(-1);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i tl = _mm256_set1_epi32(args.tl);
  const __m256i pl = _mm256_set1_epi32(args.pl);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  i32 k0 = first;
  for (; k0 <= last; k0 += kLanes) {
    const __m256i k = _mm256_add_epi32(_mm256_set1_epi32(k0), iota);

    // I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1, trimmed to h <= tl.
    __m256i ins = _mm256_max_epi32(load_row(args.m_gap, k0, -1, none),
                                   load_row(args.i_ext, k0, -1, none));
    const __m256i ins_reach = _mm256_cmpgt_epi32(ins, minus1);
    ins = _mm256_add_epi32(ins, one);
    const __m256i ins_ok =
        _mm256_andnot_si256(_mm256_cmpgt_epi32(ins, tl), ins_reach);
    ins = _mm256_blendv_epi8(none, ins, ins_ok);

    // D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1]), trimmed to v <= pl.
    __m256i del = _mm256_max_epi32(load_row(args.m_gap, k0, 1, none),
                                   load_row(args.d_ext, k0, 1, none));
    const __m256i del_reach = _mm256_cmpgt_epi32(del, minus1);
    const __m256i del_ok = _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_sub_epi32(del, k), pl), del_reach);
    del = _mm256_blendv_epi8(none, del, del_ok);

    // Mismatch predecessor M[s-x][k] + 1, trimmed to both bounds.
    __m256i sub = load_row(args.m_sub, k0, 0, none);
    const __m256i sub_reach = _mm256_cmpgt_epi32(sub, minus1);
    sub = _mm256_add_epi32(sub, one);
    const __m256i sub_bad =
        _mm256_or_si256(_mm256_cmpgt_epi32(sub, tl),
                        _mm256_cmpgt_epi32(_mm256_sub_epi32(sub, k), pl));
    sub = _mm256_blendv_epi8(none, sub,
                             _mm256_andnot_si256(sub_bad, sub_reach));

    __m256i best = _mm256_max_epi32(sub, _mm256_max_epi32(ins, del));
    best = _mm256_blendv_epi8(none, best, _mm256_cmpgt_epi32(best, minus1));

    _mm256_storeu_si256(reinterpret_cast<__m256i*>(args.out_i->offsets +
                                                   (k0 - args.out_i->lo)),
                        ins);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(args.out_d->offsets +
                                                   (k0 - args.out_d->lo)),
                        del);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(args.out_m->offsets +
                                                   (k0 - args.out_m->lo)),
                        best);
  }

  if (k0 <= args.hi) {
    wfa::ComputeRowArgs tail = args;
    tail.lo = k0;
    wfa::compute_row_scalar(tail);
  }
}

}  // namespace pimwfa::cpu::simd

#endif  // PIMWFA_SIMD_LEVEL >= 1
