// Seed-and-verify read mapper: the end-to-end workload the batch stack
// exists to serve.
//
// PEX-style hierarchical verification (Flexible pattern matching,
// Navarro & Raffinot; floxer is the modern incarnation): candidate
// windows voted by exact k-mer seeds first pass a bit-parallel Myers
// edit-distance filter with a divergence-derived threshold, and only the
// survivors pay for gap-affine WFA - batched, zero-copy, through any
// registered backend.
//
// The filter is *lossless* by construction, which is what makes the
// bit-identity guarantee testable: a mapping qualifies iff its affine
// score is <= score_cap (the worst cost of a true placement at the
// configured divergence). Any alignment with edit distance d costs at
// least d * min(mismatch, gap_extend), so candidates the filter rejects
// (d > filter_threshold = score_cap / min(mismatch, gap_extend)) could
// never have qualified under brute force either - filtered and
// unfiltered mapping return the same best alignment, score and CIGAR,
// on every backend.
//
// Case: the index folds case, but the Myers filter and the WFA compare
// bytes, so both sides are compared upper case. The mapper upper-cases
// its own copy of the reference, so a soft-masked (lower-case) stretch
// maps as its upper-case form would. map() compares each read's forward
// strand upper-cased, copying only a read that holds a lower-case letter
// (seq::reverse_complement already emits upper case). N is compared as
// given.
//
// Alphabet: a read holding any byte other than A, C, G, T or N, in either
// case (an IUPAC code such as R, say), is neither seeded nor verified. Its
// Mapping stays unmapped, and the other reads of the call map as they
// would without it.
#pragma once

#include <string>
#include <vector>

#include "align/batch.hpp"
#include "map/index.hpp"
#include "seq/cigar.hpp"

namespace pimwfa::map {

struct MapperOptions {
  // Seeding.
  usize k = 11;              // seed length (KmerIndex::kMinK..kMaxK)
  usize seeds_per_read = 4;  // seeds spread evenly across each read
  bool both_strands = true;  // also seed the reverse complement

  // Divergence budget: a read is expected to differ from its true locus
  // by at most ceil(error_rate * length) edits. Everything downstream -
  // window padding, the Myers filter threshold, the qualifying score cap
  // - derives from this single knob.
  double error_rate = 0.02;

  // Hierarchical verification: when true, candidates whose Myers edit
  // distance exceeds filter_threshold never reach the WFA. Turning it
  // off is the brute-force reference the bit-identity tests compare
  // against.
  bool filter = true;

  // Verification backend (align::backend_registry key) and its options.
  std::string backend = "cpu";
  align::BatchOptions batch;

  // Throws InvalidArgument on out-of-range fields (including a backend
  // key the registry does not know).
  void validate() const;
};

// Best qualifying alignment of one read (mapped == false when no
// candidate qualified).
struct Mapping {
  bool mapped = false;
  usize position = 0;  // inferred 0-based reference start of the read
  bool reverse = false;
  i64 score = 0;
  seq::Cigar cigar;  // read (oriented) vs padded window, WFA backtrace
};

struct MapperStats {
  usize reads = 0;
  usize candidates = 0;       // seed-voted (read, strand, start) windows
  usize filter_rejected = 0;  // dropped by the Myers pre-filter
  usize verified = 0;         // survivors aligned by the backend
  usize qualified = 0;        // verified with score <= score_cap
  align::BatchTimings timings;  // the verification batch run

  double rejection_rate() const {
    return candidates > 0
               ? static_cast<double>(filter_rejected) /
                     static_cast<double>(candidates)
               : 0.0;
  }
};

struct MapResult {
  std::vector<Mapping> mappings;  // one per input read, input order
  MapperStats stats;
};

class ReadMapper {
 public:
  // Upper-cases `reference` and indexes it (owned by the mapper;
  // candidate windows are zero-copy views into it). Throws
  // InvalidArgument for an empty reference, one longer than
  // KmerIndex's u32 position limit, or out-of-range options.
  ReadMapper(std::string reference, MapperOptions options);

  // Maps every read: seed -> filter -> capped batched WFA -> best
  // qualifying hit per read. Deterministic for fixed inputs and options.
  MapResult map(const std::vector<std::string>& reads);

  // Derived thresholds, exposed so tests can construct exact edge cases.
  // Window padding on each side of a voted start for a read of this
  // length: twice the edit budget, enough slack for every placement
  // within it.
  usize pad_for(usize read_length) const;
  // Highest qualifying affine score of a read of this length against a
  // window of that length.
  i64 score_cap(usize read_length, usize window_length) const;
  // Myers distances above this cannot score within the cap.
  i64 filter_threshold(usize read_length, usize window_length) const;

  const KmerIndex& index() const noexcept { return index_; }
  // The mapper's upper-cased copy of the reference it was given.
  const std::string& reference() const noexcept { return reference_; }
  const MapperOptions& options() const noexcept { return options_; }

 private:
  std::string reference_;
  MapperOptions options_;
  KmerIndex index_;
};

}  // namespace pimwfa::map
