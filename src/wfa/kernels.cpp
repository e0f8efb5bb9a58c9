#include "wfa/kernels.hpp"

#include "wfa/rule.hpp"

namespace pimwfa::wfa {

usize match_run_scalar(const char* a, const char* b, usize max) {
  usize i = 0;
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

void compute_row_scalar(const ComputeRowArgs& args) {
  const auto at = [](const Wavefront* w, i32 k) {
    return w != nullptr ? w->at(k) : kOffsetNone;
  };
  for (i32 k = args.lo; k <= args.hi; ++k) {
    const rule::Cell c =
        rule::cell(at(args.m_sub, k), at(args.m_gap, k - 1),
                   at(args.i_ext, k - 1), at(args.m_gap, k + 1),
                   at(args.d_ext, k + 1), k, args.pl, args.tl);
    args.out_i->set(k, c.i);
    args.out_d->set(k, c.d);
    args.out_m->set(k, c.m);
  }
}

const WfaKernels& scalar_kernels() {
  static constexpr WfaKernels kernels{&match_run_scalar, &compute_row_scalar};
  return kernels;
}

}  // namespace pimwfa::wfa
