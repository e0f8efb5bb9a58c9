#include "map/mapper.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "align/registry.hpp"
#include "baselines/myers.hpp"
#include "common/check.hpp"
#include "seq/alphabet.hpp"
#include "seq/generator.hpp"

namespace pimwfa::map {
namespace {

// One seed-voted verification job: read `read` (oriented per `reverse`)
// against reference window [begin, begin + length).
struct Candidate {
  usize read = 0;
  usize start = 0;  // voted reference start of the read itself
  usize begin = 0;  // window bounds (start padded, clamped to the genome)
  usize length = 0;
  bool reverse = false;
};

// Runs the constructor-time argument checks before the member index is
// built (initializer lists cannot interleave statements).
const std::string& checked_reference(const std::string& reference,
                                     const MapperOptions& options) {
  options.validate();
  PIMWFA_ARG_CHECK(!reference.empty(), "reference is empty");
  return reference;
}

bool is_lower(char c) { return c >= 'a' && c <= 'z'; }

// A, C, G, T or N in either case: the bytes a read may hold to be mapped.
bool is_mappable(char c) {
  return seq::is_valid_base(c) || c == 'N' || c == 'n';
}

// ASCII upper case; every other byte is kept.
std::string upper_cased(std::string sequence) {
  for (char& c : sequence) {
    if (is_lower(c)) c = static_cast<char>(c - 'a' + 'A');
  }
  return sequence;
}

}  // namespace

void MapperOptions::validate() const {
  PIMWFA_ARG_CHECK(k >= KmerIndex::kMinK && k <= KmerIndex::kMaxK,
                   "seed length k=" << k << " outside [" << KmerIndex::kMinK
                                    << ", " << KmerIndex::kMaxK << "]");
  PIMWFA_ARG_CHECK(seeds_per_read >= 1, "seeds_per_read must be >= 1");
  PIMWFA_ARG_CHECK(error_rate >= 0.0 && error_rate <= 1.0,
                   "error rate " << error_rate << " outside [0,1]");
  const align::BackendRegistry& registry = align::backend_registry();
  PIMWFA_ARG_CHECK(registry.contains(backend),
                   "unknown backend '" << backend << "' (registered: "
                                       << registry.joined_names() << ")");
  batch.validate();
}

ReadMapper::ReadMapper(std::string reference, MapperOptions options)
    : reference_(upper_cased(std::move(reference))),
      options_(std::move(options)),
      index_(checked_reference(reference_, options_), options_.k) {}

usize ReadMapper::pad_for(usize read_length) const {
  // Budget edits can shift the read's far end by e_max in either
  // direction, and the voted start itself is off by up to e_max when the
  // seed sits downstream of an indel - twice the budget covers both.
  return 2 * seq::errors_for(read_length, options_.error_rate);
}

i64 ReadMapper::score_cap(usize read_length, usize window_length) const {
  const auto& p = options_.batch.penalties;
  const i64 e_max =
      static_cast<i64>(seq::errors_for(read_length, options_.error_rate));
  const i64 per_edit = std::max<i64>(p.mismatch, p.gap_open + p.gap_extend);
  const i64 diff = std::abs(static_cast<i64>(window_length) -
                            static_cast<i64>(read_length));
  // Worst cost of a true placement: e_max budget edits, plus deleting the
  // window overhangs around the read's span (two gap opens; the span
  // length itself moves by at most e_max).
  return e_max * per_edit + 2 * p.gap_open + (diff + e_max) * p.gap_extend;
}

i64 ReadMapper::filter_threshold(usize read_length, usize window_length) const {
  const auto& p = options_.batch.penalties;
  // Any alignment with edit distance d costs at least d * min(x, e), so
  // d > cap / min(x, e) implies the affine score exceeds the cap: the
  // filter only ever discards candidates brute force would not qualify.
  const i64 cheapest_edit = std::min<i64>(p.mismatch, p.gap_extend);
  return score_cap(read_length, window_length) / cheapest_edit;
}

MapResult ReadMapper::map(const std::vector<std::string>& reads) {
  MapResult out;
  out.mappings.resize(reads.size());
  out.stats.reads = reads.size();
  const usize glen = reference_.size();
  const usize k = options_.k;

  // Reverse-complemented reads, materialized once so candidate patterns
  // can be zero-copy views for the filter stage.
  std::vector<std::string> rc(options_.both_strands ? reads.size() : 0);
  // Forward strands are compared upper case, as reverse_complement emits
  // them: only a read holding a lower-case letter is copied. A read outside
  // the mapper's alphabet keeps no forward strand and is skipped.
  std::vector<std::string> upper(reads.size());
  std::vector<const std::string*> forward(reads.size());
  for (usize r = 0; r < reads.size(); ++r) {
    const std::string& read = reads[r];
    if (!std::all_of(read.begin(), read.end(), is_mappable)) continue;
    forward[r] = &read;
    if (std::any_of(read.begin(), read.end(), is_lower)) {
      upper[r] = upper_cased(read);
      forward[r] = &upper[r];
    }
  }
  const auto oriented_read = [&](usize read,
                                 bool reverse) -> const std::string& {
    return reverse ? rc[read] : *forward[read];
  };

  // --- Seed: vote candidate starts per (read, strand) ---------------------
  std::vector<Candidate> candidates;
  std::vector<usize> seed_starts;
  std::vector<i64> votes;
  for (usize r = 0; r < reads.size(); ++r) {
    if (forward[r] == nullptr) continue;  // outside the alphabet: unmapped
    const usize strands = options_.both_strands ? 2 : 1;
    for (usize strand = 0; strand < strands; ++strand) {
      if (strand == 1) rc[r] = seq::reverse_complement(reads[r]);
      const std::string& oriented = oriented_read(r, strand == 1);
      const usize length = oriented.size();
      if (length < k) continue;

      // Seed positions spread evenly over [0, length - k].
      seed_starts.clear();
      const usize span = length - k;
      const usize seeds = options_.seeds_per_read;
      for (usize s = 0; s < seeds; ++s) {
        seed_starts.push_back(seeds == 1 ? 0 : s * span / (seeds - 1));
      }
      std::sort(seed_starts.begin(), seed_starts.end());
      seed_starts.erase(std::unique(seed_starts.begin(), seed_starts.end()),
                        seed_starts.end());

      votes.clear();
      for (const usize pos : seed_starts) {
        const std::string_view kmer{oriented.data() + pos, k};
        // lookup() skips seeds containing invalid bases (N) internally.
        for (const u32 hit : index_.lookup(kmer)) {
          const i64 start = static_cast<i64>(hit) - static_cast<i64>(pos);
          votes.push_back(std::max<i64>(0, start));
        }
      }
      std::sort(votes.begin(), votes.end());
      votes.erase(std::unique(votes.begin(), votes.end()), votes.end());

      const usize pad = pad_for(length);
      for (const i64 vote : votes) {
        const usize start = static_cast<usize>(vote);
        if (start >= glen) continue;
        const usize begin = start > pad ? start - pad : 0;
        const usize end = std::min(glen, start + length + pad);
        if (end <= begin) continue;
        candidates.push_back(
            {r, start, begin, end - begin, strand == 1});
      }
    }
  }
  out.stats.candidates = candidates.size();

  // --- Filter: bounded Myers rejects provably non-qualifying windows ------
  std::vector<Candidate> survivors;
  seq::ReadPairSet verify_set;
  const std::string_view genome{reference_};
  for (const Candidate& candidate : candidates) {
    const std::string& oriented =
        oriented_read(candidate.read, candidate.reverse);
    const std::string_view window =
        genome.substr(candidate.begin, candidate.length);
    if (options_.filter) {
      const i64 threshold =
          filter_threshold(oriented.size(), candidate.length);
      const i64 distance =
          baselines::myers_bounded_edit_distance(oriented, window, threshold);
      if (distance > threshold) {
        ++out.stats.filter_rejected;
        continue;
      }
    }
    survivors.push_back(candidate);
    verify_set.add({oriented, std::string(window)});
  }
  out.stats.verified = survivors.size();

  // --- Verify: capped affine WFA over the survivor batch ------------------
  align::BatchResult batch_result;
  if (!survivors.empty()) {
    align::BatchOptions batch_options = options_.batch;
    if (options_.filter && batch_options.pim_max_score == 0) {
      // Survivors have Myers distance <= threshold, and an alignment with
      // d edits costs at most d * max(x, o + e): a provably safe per-batch
      // score cap, which is what shrinks the PIM wavefront arenas.
      const auto& p = batch_options.penalties;
      const i64 per_edit =
          std::max<i64>(p.mismatch, p.gap_open + p.gap_extend);
      i64 max_threshold = 0;
      for (const Candidate& candidate : survivors) {
        const usize read_length =
            oriented_read(candidate.read, candidate.reverse).size();
        max_threshold = std::max(
            max_threshold, filter_threshold(read_length, candidate.length));
      }
      batch_options.pim_max_score = static_cast<u64>(max_threshold * per_edit);
    }

    auto backend =
        align::backend_registry().create(options_.backend, batch_options);
    batch_result = backend->run(seq::ReadPairSpan(verify_set),
                                align::AlignmentScope::kFull);
    PIMWFA_CHECK(batch_result.results.size() == survivors.size(),
                 "backend under-materialized the verification batch: "
                     << batch_result.results.size() << " of "
                     << survivors.size());
  }
  out.stats.timings = batch_result.timings;

  // --- Qualify + pick: first strictly-minimal qualifying hit per read -----
  // Candidate enumeration order is identical with and without the filter
  // (the filter only removes non-qualifying candidates), so this
  // tie-break makes filtered and brute-force mapping bit-identical.
  for (usize i = 0; i < survivors.size(); ++i) {
    const Candidate& candidate = survivors[i];
    const align::AlignmentResult& result = batch_result.results[i];
    const usize read_length =
        oriented_read(candidate.read, candidate.reverse).size();
    if (result.score > score_cap(read_length, candidate.length)) continue;
    ++out.stats.qualified;
    Mapping& best = out.mappings[candidate.read];
    if (!best.mapped || result.score < best.score) {
      best.mapped = true;
      best.position = candidate.start;
      best.reverse = candidate.reverse;
      best.score = result.score;
      best.cigar = result.cigar;
    }
  }
  return out;
}

}  // namespace pimwfa::map
