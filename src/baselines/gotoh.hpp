// Gotoh's O(n^2) dynamic-programming algorithm for global gap-affine
// alignment. This is the trusted reference implementation the WFA library
// is validated against (WFA is exact, so their scores must agree on every
// input), and the classical baseline the WFA paper compares to.
//
// Three-matrix formulation (penalty minimization), matching the WFA paper:
//   I[i][j] = min(M[i][j-1] + o + e, I[i][j-1] + e)     (gap in pattern)
//   D[i][j] = min(M[i-1][j] + o + e, D[i-1][j] + e)     (gap in text)
//   M[i][j] = min(M[i-1][j-1] + (P[i]==T[j] ? 0 : x), I[i][j], D[i][j])
#pragma once

#include <string_view>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"

namespace pimwfa::baselines {

class GotohAligner {
 public:
  explicit GotohAligner(align::Penalties penalties);

  // Global alignment of `pattern` vs `text`: the gap-affine penalty, plus
  // the CIGAR if `scope` is kFull. Scratch buffers are reused across calls.
  align::AlignmentResult align(std::string_view pattern, std::string_view text,
                               align::AlignmentScope scope);

  const align::Penalties& penalties() const noexcept { return penalties_; }

 private:
  align::AlignmentResult align_full(std::string_view pattern,
                                    std::string_view text);
  // Two-row rolling variant, O(min-memory), used for kScoreOnly.
  i64 score_only(std::string_view pattern, std::string_view text);

  align::Penalties penalties_;
  // Scratch reused across calls (full mode).
  std::vector<i64> m_, i_, d_;
};

// Banded Gotoh: only diagonals within `band` of the main (length-difference
// corrected) diagonal are computed. Exact whenever the optimal alignment
// stays within the band; the returned `band_exceeded` flag reports whether
// the band boundary was touched (in which case the score is an upper bound).
struct BandedResult {
  i64 score = 0;
  bool band_exceeded = false;
};

BandedResult gotoh_banded_score(std::string_view pattern, std::string_view text,
                                const align::Penalties& penalties, usize band);

}  // namespace pimwfa::baselines
