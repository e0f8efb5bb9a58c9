// Seed-and-verify read mapper (src/map/): seeding correctness on
// N-containing references, the Myers filter-threshold edges, and the
// bit-identity guarantee - filtered mapping returns the same best hit
// (score and CIGAR) as brute-force verification on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baselines/myers.hpp"
#include "common/rng.hpp"
#include "map/index.hpp"
#include "map/mapper.hpp"
#include "map/reference.hpp"
#include "seq/alphabet.hpp"
#include "seq/generator.hpp"

namespace pimwfa::map {
namespace {

// --- k-mer index / seeding correctness -----------------------------------

std::vector<u32> as_vector(std::span<const u32> hits) {
  return {hits.begin(), hits.end()};
}

std::string lower_cased(std::string sequence) {
  for (char& c : sequence) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return sequence;
}

TEST(KmerIndex, IndexesEveryValidWindow) {
  const std::string reference = "ACGTACGTACGT";
  KmerIndex index(reference, 4);
  EXPECT_EQ(index.k(), 4u);
  EXPECT_EQ(index.indexed_positions(), reference.size() - 4 + 1);
  EXPECT_EQ(index.skipped_positions(), 0u);
  // "ACGT" occurs at 0, 4, 8.
  EXPECT_EQ(as_vector(index.lookup("ACGT")), (std::vector<u32>{0, 4, 8}));
  EXPECT_EQ(as_vector(index.lookup("CGTA")), (std::vector<u32>{1, 5}));
  EXPECT_TRUE(index.lookup("AAAA").empty());
}

TEST(KmerIndex, KmerCodeRejectsInvalidBases) {
  KmerIndex index("ACGTACGTACGT", 4);
  u64 code = 0xDEAD;
  EXPECT_FALSE(index.kmer_code("ACGN", code));
  EXPECT_EQ(code, 0xDEADu);  // untouched on failure
  EXPECT_TRUE(index.kmer_code("ACGT", code));
  EXPECT_EQ(code, 0b00011011u);  // A=0 C=1 G=2 T=3
}

// Regression for the historical read_mapper hashing: OR-ing
// encode_base's 0xff sentinel into the rolling code collided every
// N-containing k-mer onto a garbage bucket, so windows overlapping an N
// run were both indexed *and* looked up as bogus positions. The index
// must skip them entirely on both sides.
TEST(KmerIndex, SkipsWindowsOverlappingInvalidBases) {
  //            0123456789012345
  const std::string reference = "ACGTACGNACGTACGT";
  KmerIndex index(reference, 4);
  // Windows starting at 4..7 overlap the N at position 7.
  EXPECT_EQ(index.skipped_positions(), 4u);
  EXPECT_EQ(index.indexed_positions(), reference.size() - 4 + 1 - 4);
  for (usize start = 4; start <= 7; ++start) {
    const std::span<const u32> hits =
        index.lookup(reference.substr(start, 4));
    EXPECT_TRUE(std::find(hits.begin(), hits.end(), static_cast<u32>(start)) ==
                hits.end())
        << "window at " << start << " overlaps the N and must not be indexed";
  }
  // Distinct N-containing k-mers must not collide onto a shared bucket.
  EXPECT_TRUE(index.lookup("ACGN").empty());
  EXPECT_TRUE(index.lookup("TCGN").empty());
  // The valid windows around the run are still found.
  EXPECT_EQ(as_vector(index.lookup("ACGT")), (std::vector<u32>{0, 8, 12}));
}

TEST(KmerIndex, RejectsOutOfRangeK) {
  EXPECT_THROW(KmerIndex("ACGT", 2), InvalidArgument);
  EXPECT_THROW(KmerIndex("ACGT", 32), InvalidArgument);
}

// Differential check against a naive scan of every window, over
// references with N islands, a lower-cased stretch (whose Ns read `n`)
// and poly-A / poly-T runs that land in the directory's first and last
// slots, at seed lengths whose directory covers all 2k code bits (k = 4)
// or only the top 16 (k = 11, 16, 31).
TEST(KmerIndex, MatchesNaiveScan) {
  ReferenceConfig config;
  config.length = 6000;
  config.n_islands = 4;
  config.n_island_length = 30;
  std::string reference = synthetic_reference(config);
  reference.replace(1000, 1500, lower_cased(reference.substr(1000, 1500)));
  reference += std::string(64, 'A') + "N" + std::string(64, 'T');
  ASSERT_NE(reference.find('n'), std::string::npos);

  Rng rng(0x1DE);
  for (const usize k : {usize{4}, usize{11}, usize{16}, usize{31}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::map<std::string, std::vector<u32>> naive;
    for (usize start = 0; start + k <= reference.size(); ++start) {
      const std::string window = reference.substr(start, k);
      if (!seq::is_valid_sequence(window)) continue;
      naive[seq::normalize_sequence(window)].push_back(
          static_cast<u32>(start));
    }
    const KmerIndex index(reference, k);
    usize indexed = 0;
    for (const auto& [kmer, positions] : naive) indexed += positions.size();
    EXPECT_EQ(index.distinct_kmers(), naive.size());
    EXPECT_EQ(index.indexed_positions(), indexed);
    EXPECT_EQ(index.skipped_positions(), reference.size() - k + 1 - indexed);
    // Codes are u64, offsets u32, and the directory has
    // 2^min(2k, 16) + 1 slots.
    const usize slots = (usize{1} << std::min<usize>(2 * k, 16)) + 1;
    EXPECT_EQ(index.memory_bytes(),
              naive.size() * sizeof(u64) +
                  (naive.size() + 1 + indexed + slots) * sizeof(u32));

    const auto expect_naive = [&](const std::string& kmer) {
      const auto hit = naive.find(kmer);
      const std::vector<u32> expected =
          hit == naive.end() ? std::vector<u32>{} : hit->second;
      EXPECT_EQ(as_vector(index.lookup(kmer)), expected) << kmer;
    };
    for (const auto& [kmer, positions] : naive) {
      EXPECT_EQ(as_vector(index.lookup(kmer)), positions) << kmer;
      EXPECT_EQ(as_vector(index.lookup(lower_cased(kmer))), positions)
          << kmer;
      std::string with_n = kmer;
      with_n[rng.next_below(k)] = 'N';
      EXPECT_TRUE(index.lookup(with_n).empty()) << with_n;
    }
    // Absent k-mers: every 4-mer, else random ones and one-base edits of
    // present ones.
    if (k == 4) {
      for (u64 code = 0; code < 256; ++code) {
        std::string kmer(4, 'A');
        for (usize i = 0; i < 4; ++i) {
          kmer[3 - i] = seq::decode_base(static_cast<u8>(code >> (2 * i)));
        }
        expect_naive(kmer);
      }
    } else {
      for (usize trial = 0; trial < 200; ++trial) {
        expect_naive(seq::random_sequence(rng, k));
      }
      for (const auto& entry : naive) {
        std::string kmer = entry.first;
        kmer[k - 1] = seq::decode_base(
            static_cast<u8>((seq::encode_base(kmer[k - 1]) + 1) & 3u));
        expect_naive(kmer);
      }
    }
  }
}

TEST(KmerIndex, IndexesNothingWithoutAValidWindow) {
  for (const std::string& reference :
       {std::string("ACG"), std::string(100, 'N')}) {
    const KmerIndex index(reference, 4);
    EXPECT_EQ(index.distinct_kmers(), 0u);
    EXPECT_EQ(index.indexed_positions(), 0u);
    EXPECT_EQ(index.skipped_positions(),
              reference.size() < 4 ? 0u : reference.size() - 4 + 1);
    EXPECT_EQ(index.memory_bytes(), 0u);
    EXPECT_TRUE(index.lookup("ACGT").empty());
    EXPECT_TRUE(index.lookup("AAAA").empty());
    EXPECT_TRUE(index.lookup("TTTT").empty());
  }
}

// --- reference synthesis / read simulation -------------------------------

TEST(Reference, SyntheticReferenceIsDeterministicAndSized) {
  ReferenceConfig config;
  config.length = 5000;
  const std::string a = synthetic_reference(config);
  const std::string b = synthetic_reference(config);
  EXPECT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find('N'), std::string::npos);
}

TEST(Reference, NIslandsAreImplanted) {
  ReferenceConfig config;
  config.length = 5000;
  config.n_islands = 3;
  config.n_island_length = 40;
  const std::string genome = synthetic_reference(config);
  const usize ns = static_cast<usize>(
      std::count(genome.begin(), genome.end(), 'N'));
  // Islands may overlap, so between one and three islands' worth of Ns.
  EXPECT_GE(ns, config.n_island_length);
  EXPECT_LE(ns, 3 * config.n_island_length);
}

TEST(Reference, RejectsBadConfigs) {
  ReferenceConfig config;
  config.length = 0;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
  config.length = 100;
  config.repeat_fraction = 1.5;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
  config.repeat_fraction = 0.5;
  config.n_islands = 1;
  config.n_island_length = 200;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
}

// Regression for the historical toy: rng.next_below(genome_len - read_len)
// underflowed its unsigned argument when --read-length >= --genome and
// sampled garbage. The simulator must reject the configuration instead.
TEST(Reference, SimulateReadsRejectsReadsNotShorterThanReference) {
  ReferenceConfig ref_config;
  ref_config.length = 200;
  const std::string genome = synthetic_reference(ref_config);
  ReadSimConfig sim;
  sim.reads = 4;
  sim.read_length = 200;  // == reference length
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 500;  // > reference length
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 0;
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 199;  // largest valid
  EXPECT_EQ(simulate_reads(genome, sim).size(), 4u);
}

TEST(Reference, SimulatedReadsCarryTruth) {
  ReferenceConfig ref_config;
  ref_config.length = 2000;
  ref_config.repeat_fraction = 0;
  const std::string genome = synthetic_reference(ref_config);
  ReadSimConfig sim;
  sim.reads = 50;
  sim.read_length = 100;
  sim.error_rate = 0;
  const auto reads = simulate_reads(genome, sim);
  ASSERT_EQ(reads.size(), 50u);
  bool saw_reverse = false;
  for (const SimulatedRead& read : reads) {
    const std::string span = genome.substr(read.position, sim.read_length);
    if (read.reverse) {
      saw_reverse = true;
      EXPECT_EQ(read.bases, seq::reverse_complement(span));
    } else {
      EXPECT_EQ(read.bases, span);
    }
  }
  EXPECT_TRUE(saw_reverse);
}

// --- filter threshold edges ----------------------------------------------

// Builds a mapper over a random (repeat-free) genome with single-seed
// reads, plus a read from `position` carrying exactly `substitutions`
// isolated substitutions after a clean seed prefix.
struct EdgeFixture {
  std::string genome;
  MapperOptions options;

  EdgeFixture() {
    ReferenceConfig config;
    config.length = 2000;
    config.repeat_fraction = 0;
    genome = synthetic_reference(config);
    options.k = 11;
    options.seeds_per_read = 1;  // seed at offset 0 only
    options.both_strands = false;
    options.backend = "cpu";
  }

  std::string read_with_substitutions(usize position, usize length,
                                      usize substitutions) const {
    std::string read = genome.substr(position, length);
    // Isolated substitutions (spaced 2 apart) after the clean seed
    // prefix; each typically contributes 1 to the edit distance (a rare
    // flip can be absorbed by a shift, which is why callers search for
    // the count that lands exactly on their target distance).
    for (usize i = 0; i < substitutions; ++i) {
      const usize at = options.k + 1 + 2 * i;
      EXPECT_LT(at, read.size());
      read[at] = read[at] == 'A' ? 'C' : 'A';
    }
    return read;
  }

  // The read from `position` whose global Myers distance against its
  // padded window is exactly `target` (adding isolated substitutions
  // raises the distance by at most 1 per step, so the search cannot
  // overshoot a reachable target).
  std::string read_at_distance(const ReadMapper& mapper, usize position,
                               usize length, i64 target) const {
    const usize pad = mapper.pad_for(length);
    const std::string window =
        genome.substr(position - pad, length + 2 * pad);
    for (usize subs = 1; subs < length / 2; ++subs) {
      const std::string read =
          read_with_substitutions(position, length, subs);
      if (baselines::myers_edit_distance(read, window) == target) {
        return read;
      }
    }
    ADD_FAILURE() << "no substitution count reaches distance " << target;
    return genome.substr(position, length);
  }
};

// A candidate whose Myers distance lands exactly on the threshold must
// survive the filter and reach the WFA stage (the filter rejects only
// strictly-above-threshold candidates: they provably cannot qualify).
TEST(FilterThreshold, CandidateExactlyAtCutoffSurvives) {
  EdgeFixture fixture;
  ReadMapper mapper(fixture.genome, fixture.options);
  const usize read_length = 100;
  const usize position = 500;
  const usize pad = mapper.pad_for(read_length);
  const usize window_length = read_length + 2 * pad;
  const i64 threshold = mapper.filter_threshold(read_length, window_length);
  // Global Myers distance vs the padded window includes deleting the two
  // pads; land exactly on the threshold.
  const std::string read =
      fixture.read_at_distance(mapper, position, read_length, threshold);
  ASSERT_EQ(baselines::myers_edit_distance(
                read, fixture.genome.substr(position - pad, window_length)),
            threshold);

  auto result = mapper.map({read});
  EXPECT_EQ(result.stats.candidates, 1u);
  EXPECT_EQ(result.stats.filter_rejected, 0u);
  EXPECT_EQ(result.stats.verified, 1u);
  // At the cutoff the candidate reaches the WFA but cannot qualify: its
  // affine score exceeds the cap by construction.
  EXPECT_EQ(result.stats.qualified, 0u);
  EXPECT_FALSE(result.mappings[0].mapped);
}

// One edit past the cutoff flips the candidate to a filter rejection -
// same outcome (unmapped), one stage earlier.
TEST(FilterThreshold, CandidateJustPastCutoffIsRejected) {
  EdgeFixture fixture;
  ReadMapper mapper(fixture.genome, fixture.options);
  const usize read_length = 100;
  const usize pad = mapper.pad_for(read_length);
  const i64 threshold =
      mapper.filter_threshold(read_length, read_length + 2 * pad);
  const std::string read =
      fixture.read_at_distance(mapper, 500, read_length, threshold + 1);

  auto result = mapper.map({read});
  EXPECT_EQ(result.stats.candidates, 1u);
  EXPECT_EQ(result.stats.filter_rejected, 1u);
  EXPECT_EQ(result.stats.verified, 0u);
  EXPECT_FALSE(result.mappings[0].mapped);
}

TEST(FilterThreshold, BoundedMyersAgreesWithExactUpToThreshold) {
  Rng rng(0x7E57);
  for (usize trial = 0; trial < 50; ++trial) {
    const std::string pattern = seq::random_sequence(rng, 80);
    const std::string text =
        seq::mutate_sequence(rng, pattern, trial % 12);
    const i64 exact = baselines::myers_edit_distance(pattern, text);
    for (const i64 threshold : {i64{0}, i64{4}, i64{12}, exact, exact + 5}) {
      const i64 bounded =
          baselines::myers_bounded_edit_distance(pattern, text, threshold);
      if (exact <= threshold) {
        EXPECT_EQ(bounded, exact);
      } else {
        EXPECT_EQ(bounded, threshold + 1);
      }
    }
  }
}

// --- bit-identity: filtered == brute force on every backend --------------

void expect_identical(const MapResult& filtered, const MapResult& brute,
                      const std::string& label) {
  ASSERT_EQ(filtered.mappings.size(), brute.mappings.size()) << label;
  for (usize r = 0; r < filtered.mappings.size(); ++r) {
    const Mapping& f = filtered.mappings[r];
    const Mapping& b = brute.mappings[r];
    ASSERT_EQ(f.mapped, b.mapped) << label << " read " << r;
    if (!f.mapped) continue;
    EXPECT_EQ(f.position, b.position) << label << " read " << r;
    EXPECT_EQ(f.reverse, b.reverse) << label << " read " << r;
    EXPECT_EQ(f.score, b.score) << label << " read " << r;
    EXPECT_EQ(f.cigar.ops(), b.cigar.ops()) << label << " read " << r;
  }
}

struct Workload {
  std::string genome;
  std::vector<std::string> queries;
  std::vector<SimulatedRead> truth;

  explicit Workload(usize n_islands = 0) {
    ReferenceConfig ref_config;
    ref_config.length = 20'000;
    ref_config.seed = 0xB17;
    ref_config.n_islands = n_islands;
    ref_config.n_island_length = 60;
    genome = synthetic_reference(ref_config);
    ReadSimConfig sim;
    sim.reads = 80;
    sim.read_length = 100;
    sim.seed = 0x1D;
    truth = simulate_reads(genome, sim);
    for (const SimulatedRead& read : truth) queries.push_back(read.bases);
  }
};

MapperOptions backend_options(const std::string& backend) {
  MapperOptions options;
  options.backend = backend;
  options.batch.cpu_threads = 2;
  options.batch.pim_dpus = 2;
  if (backend == "cpu-simd") options.batch.cpu_simd = true;
  return options;
}

class BitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(BitIdentity, FilteredMatchesBruteForce) {
  const Workload workload;
  MapperOptions options = backend_options(GetParam());

  options.filter = true;
  const MapResult filtered =
      ReadMapper(workload.genome, options).map(workload.queries);
  options.filter = false;
  const MapResult brute =
      ReadMapper(workload.genome, options).map(workload.queries);

  // The guarantee is only interesting when the filter actually fired.
  EXPECT_GT(filtered.stats.filter_rejected, 0u);
  EXPECT_LT(filtered.stats.verified, brute.stats.verified);
  expect_identical(filtered, brute, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, BitIdentity,
                         ::testing::Values("cpu", "cpu-simd", "pim", "hybrid"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// All backends must agree with each other, not just with their own
// brute-force run.
TEST(BitIdentityAcrossBackends, AllBackendsAgree) {
  const Workload workload;
  const MapResult reference =
      ReadMapper(workload.genome, backend_options("cpu"))
          .map(workload.queries);
  for (const char* backend : {"cpu-simd", "pim", "hybrid"}) {
    const MapResult other =
        ReadMapper(workload.genome, backend_options(backend))
            .map(workload.queries);
    expect_identical(reference, other, backend);
  }
}

// --- end-to-end mapping quality ------------------------------------------

TEST(ReadMapper, MapsBothStrandsToTheTrueLocus) {
  const Workload workload;
  const MapResult result = ReadMapper(workload.genome, backend_options("cpu"))
                               .map(workload.queries);
  usize correct = 0;
  usize reverse_correct = 0;
  usize reverse_reads = 0;
  for (usize r = 0; r < workload.truth.size(); ++r) {
    const SimulatedRead& truth = workload.truth[r];
    if (truth.reverse) ++reverse_reads;
    const Mapping& mapping = result.mappings[r];
    if (!mapping.mapped || mapping.reverse != truth.reverse) continue;
    const i64 delta = static_cast<i64>(mapping.position) -
                      static_cast<i64>(truth.position);
    const i64 pad = static_cast<i64>(
        ReadMapper(workload.genome, backend_options("cpu"))
            .pad_for(workload.queries[r].size()));
    if (delta >= -pad && delta <= pad) {
      ++correct;
      if (truth.reverse) ++reverse_correct;
    }
  }
  // >= 90% of reads at the true locus, including the reverse strand.
  EXPECT_GE(correct * 10, workload.truth.size() * 9);
  EXPECT_GT(reverse_reads, 0u);
  EXPECT_GE(reverse_correct * 10, reverse_reads * 9);
}

TEST(ReadMapper, NContainingReferenceAndReadsMapCleanly) {
  const Workload workload(/*n_islands=*/5);
  ASSERT_NE(workload.genome.find('N'), std::string::npos);
  bool reads_with_n = false;
  for (const std::string& query : workload.queries) {
    if (query.find('N') != std::string::npos) reads_with_n = true;
  }
  ASSERT_TRUE(reads_with_n) << "workload must cover N-containing reads";

  MapperOptions options = backend_options("cpu");
  const MapResult filtered =
      ReadMapper(workload.genome, options).map(workload.queries);
  options.filter = false;
  const MapResult brute =
      ReadMapper(workload.genome, options).map(workload.queries);
  expect_identical(filtered, brute, "n-islands");

  // Most reads avoid the islands and must still map to the true locus.
  usize correct = 0;
  for (usize r = 0; r < workload.truth.size(); ++r) {
    const Mapping& mapping = filtered.mappings[r];
    if (!mapping.mapped || mapping.reverse != workload.truth[r].reverse)
      continue;
    const i64 delta = static_cast<i64>(mapping.position) -
                      static_cast<i64>(workload.truth[r].position);
    if (delta >= -8 && delta <= 8) ++correct;
  }
  EXPECT_GE(correct * 10, workload.truth.size() * 8);
}

// The 120 kb reference of bench_mapper and perfbench map-reads, and 64
// reads from both strands.
struct CaseWorkload {
  std::string genome;
  std::vector<std::string> queries;

  CaseWorkload() {
    ReferenceConfig ref_config;
    ref_config.length = 120'000;
    genome = synthetic_reference(ref_config);
    ReadSimConfig sim;
    sim.reads = 64;
    sim.seed = 77;
    for (const SimulatedRead& read : simulate_reads(genome, sim)) {
      queries.push_back(read.bases);
    }
  }
};

usize mapped_reads(const MapResult& result) {
  return static_cast<usize>(
      std::count_if(result.mappings.begin(), result.mappings.end(),
                    [](const Mapping& m) { return m.mapped; }));
}

// The index folds case but the filter and the WFA compare bytes: before
// the mapper upper-cased its reference, every read from a soft-masked
// stretch was seeded and then failed verification.
TEST(ReadMapper, SoftMaskedReferenceMapsAsUpperCase) {
  const CaseWorkload workload;
  const usize half = workload.genome.size() / 2;
  const std::string masked =
      workload.genome.substr(0, half) +
      lower_cased(workload.genome.substr(half));

  MapperOptions options = backend_options("cpu");
  const MapResult plain =
      ReadMapper(workload.genome, options).map(workload.queries);
  ReadMapper masked_mapper(masked, options);
  EXPECT_TRUE(masked_mapper.reference() == workload.genome);
  const MapResult soft = masked_mapper.map(workload.queries);
  options.filter = false;
  const MapResult brute = ReadMapper(masked, options).map(workload.queries);

  EXPECT_EQ(mapped_reads(plain), workload.queries.size());
  EXPECT_EQ(mapped_reads(soft), workload.queries.size());
  expect_identical(plain, soft, "soft-masked reference");
  expect_identical(soft, brute, "soft-masked brute force");
}

// seq::reverse_complement emits upper case, so before map() upper-cased
// the forward strand a lower-case read mapped only from the reverse
// strand.
TEST(ReadMapper, LowerCaseReadsMapAsUpperCase) {
  const CaseWorkload workload;
  std::vector<std::string> lowered;
  for (const std::string& query : workload.queries) {
    lowered.push_back(lower_cased(query));
  }
  ReadMapper mapper(workload.genome, backend_options("cpu"));
  const MapResult upper = mapper.map(workload.queries);
  const MapResult lower = mapper.map(lowered);
  EXPECT_EQ(mapped_reads(lower), workload.queries.size());
  EXPECT_EQ(lower.stats.candidates, upper.stats.candidates);
  EXPECT_EQ(lower.stats.verified, upper.stats.verified);
  EXPECT_EQ(lower.stats.qualified, upper.stats.qualified);
  expect_identical(upper, lower, "lower-case reads");
}

// A read holding an IUPAC code is outside map()'s alphabet: it stays
// unmapped and must not fail the call (seq::reverse_complement throws on
// it), so every clean read beside it maps as in a call without it.
TEST(ReadMapper, ReadsOutsideTheAlphabetStayUnmappedAlone) {
  const CaseWorkload workload;
  std::string upper_r = workload.queries[0];
  upper_r[50] = 'R';
  std::string lower_y = lower_cased(workload.queries[1]);
  lower_y[10] = 'y';
  std::vector<std::string> mixed = workload.queries;
  const usize bad[] = {5, 40};
  mixed.insert(mixed.begin() + bad[0], upper_r);
  mixed.insert(mixed.begin() + bad[1], lower_y);

  ReadMapper mapper(workload.genome, backend_options("cpu"));
  const MapResult clean = mapper.map(workload.queries);
  MapResult result;
  ASSERT_NO_THROW(result = mapper.map(mixed));
  ASSERT_EQ(result.mappings.size(), mixed.size());
  EXPECT_FALSE(result.mappings[bad[0]].mapped);
  EXPECT_FALSE(result.mappings[bad[1]].mapped);
  // Neither is seeded, and the clean reads map as they do alone.
  EXPECT_EQ(result.stats.candidates, clean.stats.candidates);
  EXPECT_EQ(result.stats.verified, clean.stats.verified);
  EXPECT_EQ(mapped_reads(clean), workload.queries.size());
  result.mappings.erase(result.mappings.begin() + bad[1]);
  result.mappings.erase(result.mappings.begin() + bad[0]);
  expect_identical(clean, result, "clean reads beside bad ones");
}

// --- options validation ---------------------------------------------------

TEST(MapperOptions, Validation) {
  const std::string genome(500, 'A');
  MapperOptions options;
  options.k = 2;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.seeds_per_read = 0;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.error_rate = 1.5;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.backend = "no-such-backend";
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  EXPECT_THROW(ReadMapper("", options), InvalidArgument);
}

TEST(MapperOptions, ThresholdsFollowTheFormulas) {
  ReferenceConfig config;
  config.length = 1000;
  ReadMapper mapper(synthetic_reference(config), MapperOptions{});
  // Defaults: x=4, o=6, e=2, error_rate 0.02 -> e_max = 2 at L = 100.
  EXPECT_EQ(mapper.pad_for(100), 4u);
  // cap = e_max*max(x,o+e) + 2o + (|W-L| + e_max)*e = 16 + 12 + 20 = 48.
  EXPECT_EQ(mapper.score_cap(100, 108), 48);
  // t = cap / min(x, e) = 48 / 2.
  EXPECT_EQ(mapper.filter_threshold(100, 108), 24);
}

}  // namespace
}  // namespace pimwfa::map
