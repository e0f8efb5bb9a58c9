// Synthetic references and read simulation for the seed-and-verify
// mapper.
//
// A purely random reference makes exact seeds nearly perfect (a 100kb
// genome barely collides in 4^k k-mer space), which would let the
// mapper's hierarchical verification degrade to a no-op without anyone
// noticing. Real genomes are repetitive, so the generator implants
// mutated copies of a repeat family across the sequence: seeds then vote
// for every sibling copy and the Myers pre-filter has real junk to
// reject. N islands model assembly gaps - their windows must be skipped
// by the indexer, not encoded (see map::KmerIndex).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace pimwfa::map {

struct ReferenceConfig {
  usize length = 100'000;
  // Fraction of the genome covered by implanted copies of one repeat
  // family; 0 disables repeats entirely.
  double repeat_fraction = 0.5;
  usize repeat_unit_length = 500;
  // Per-copy divergence from the family consensus (edit rate applied
  // when implanting a copy). High enough that a read from one copy must
  // not qualify on a sibling, low enough that sibling copies still share
  // exact seeds - the junk-candidate stream the filter exists for.
  double repeat_divergence = 0.2;
  // Assembly-gap model: `n_islands` runs of 'N', each `n_island_length`
  // bases, at random positions.
  usize n_islands = 0;
  usize n_island_length = 50;
  u64 seed = 0x3A9;
};

// Deterministic synthetic reference for `config`. Throws InvalidArgument
// on out-of-range fields (fractions outside [0,1], islands longer than
// the genome, zero-length repeat unit with a nonzero fraction).
std::string synthetic_reference(const ReferenceConfig& config);

struct SimulatedRead {
  std::string bases;   // as sequenced (reverse-complemented when reverse)
  usize position = 0;  // 0-based reference start of the sampled span
  bool reverse = false;
};

struct ReadSimConfig {
  usize reads = 1000;
  usize read_length = 100;
  double error_rate = 0.02;  // edits applied: ceil(rate * length)
  bool both_strands = true;  // sample the reverse strand with p = 0.5
  u64 seed = 0x517;
};

// Samples reads uniformly from `reference` with `error_rate` mutations,
// reverse-complementing half of them when both_strands is set. Throws
// InvalidArgument when read_length is zero or >= the reference length
// (the historical read_mapper underflowed rng.next_below's unsigned
// argument on that configuration instead of rejecting it).
std::vector<SimulatedRead> simulate_reads(const std::string& reference,
                                          const ReadSimConfig& config);

}  // namespace pimwfa::map
