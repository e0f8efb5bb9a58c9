// map-reads: the batch stack's real consumer. ReadMapper over a
// repetitive synthetic reference (50% repeats) maps simulated 100 bp reads
// from both strands at E=2%, with the Myers pre-filter on, verifying on
// `cpu-simd`. No PIM simulation and no service run here. Mapping clients,
// one per core and each with its own ReadMapper, share each pass's calls.
// An op is one read; a read fails when it does not map to its simulated
// locus (strand and position within the window pad), and, for a fixed
// sample of reads, when its mapping differs from brute-force (unfiltered)
// mapping.
#include <algorithm>
#include <memory>

#include "map/mapper.hpp"
#include "map/reference.hpp"
#include "seq/view.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;

constexpr usize kGenomeLength = 120'000;
constexpr usize kReadsPerCall = 125;
constexpr usize kCallsPerCycle = 48;
constexpr usize kBruteSample = 20;  // reads per call checked vs brute force
constexpr usize kSetupRepeats = 3;

bool same_mapping(const map::Mapping& a, const map::Mapping& b) {
  return a.mapped == b.mapped &&
         (!a.mapped || (a.position == b.position && a.reverse == b.reverse &&
                        a.score == b.score && a.cigar.ops() == b.cigar.ops()));
}

}  // namespace

void run_map_reads(const Args& args, Tracer& tracer, Report& report) {
  const usize reads_per_call = args.tiny ? 50 : kReadsPerCall;
  const usize calls = args.tiny ? 4 : kCallsPerCycle;
  const usize clients = pool_threads();

  // --- inputs and reference answers (untimed) ----------------------------
  // The reference is fixed data (its default seed); the reads are sampled
  // from --seed.
  map::ReferenceConfig ref_config;
  ref_config.length = args.tiny ? 20'000 : kGenomeLength;
  ref_config.repeat_fraction = 0.5;
  const std::string genome = map::synthetic_reference(ref_config);
  map::ReadSimConfig sim_config;
  sim_config.reads = reads_per_call * calls;
  sim_config.read_length = 100;
  sim_config.error_rate = 0.02;
  sim_config.both_strands = true;
  sim_config.seed = args.seed;
  const std::vector<map::SimulatedRead> truth =
      map::simulate_reads(genome, sim_config);

  map::MapperOptions options;
  options.error_rate = sim_config.error_rate;
  options.filter = true;
  options.backend = "cpu-simd";
  options.batch.cpu_threads = 1;

  std::vector<std::vector<std::string>> call_reads(calls);
  std::vector<std::vector<map::Mapping>> brute(calls);
  {
    map::MapperOptions brute_options = options;
    brute_options.filter = false;
    map::ReadMapper brute_mapper(genome, brute_options);
    for (usize c = 0; c < calls; ++c) {
      for (usize r = 0; r < reads_per_call; ++r) {
        call_reads[c].push_back(truth[c * reads_per_call + r].bases);
      }
      const std::vector<std::string> sample(
          call_reads[c].begin(), call_reads[c].begin() + kBruteSample);
      brute[c] = brute_mapper.map(sample).mappings;
    }
  }

  // --- set-up: one index build per client and a warm-up call -------------
  // A traced run records the constructor spans too, outside any timed
  // pass (so they stay out of the self-time accounting).
  std::vector<std::unique_ptr<map::ReadMapper>> mappers(clients);
  std::vector<double> index_build_s;
  tracer.set_enabled(args.trace);
  report.metric("setup_s", median_setup_seconds(kSetupRepeats, [&] {
                  for (auto& mapper : mappers) {
                    mapper.reset();
                    const Clock::time_point t0 = Clock::now();
                    {
                      SpanScope span(tracer, "map.ReadMapper", "setup");
                      mapper = std::make_unique<map::ReadMapper>(genome,
                                                                 options);
                    }
                    index_build_s.push_back(
                        seconds_between(t0, Clock::now()));
                    mapper->map(call_reads[0]);
                  }
                }),
                "s");
  tracer.set_enabled(false);

  // --- timed loop ----------------------------------------------------------
  map::MapperStats first_pass;
  usize first_pass_correct = 0;
  std::vector<map::MapResult> results(calls);
  Cycle cycle;
  cycle.calls = calls;
  cycle.clients = clients;
  cycle.clients_layer = "map";
  cycle.call = [&](usize c, usize client) {
    SpanScope span(tracer, "map.map", "map", c);
    results[c] = mappers[client]->map(call_reads[c]);
    span.arg("reads", static_cast<double>(call_reads[c].size()));
    span.arg("verified", static_cast<double>(results[c].stats.verified));
    span.arg("verify_ms", results[c].stats.timings.wall_seconds * 1e3);
  };
  cycle.check = [&](usize c, bool first) {
    const map::MapResult& result = results[c];
    usize failed = 0;
    usize correct = 0;
    for (usize r = 0; r < reads_per_call; ++r) {
      const map::Mapping& m = result.mappings[r];
      const map::SimulatedRead& t = truth[c * reads_per_call + r];
      const i64 pad = static_cast<i64>(mappers[0]->pad_for(t.bases.size()));
      const i64 delta =
          static_cast<i64>(m.position) - static_cast<i64>(t.position);
      bool ok = m.mapped && m.reverse == t.reverse && delta >= -pad &&
                delta <= pad;
      if (ok) ++correct;
      if (r < kBruteSample) ok = ok && same_mapping(m, brute[c][r]);
      if (!ok) ++failed;
    }
    report.ops(reads_per_call, failed);
    if (first) {
      const map::MapperStats& s = result.stats;
      first_pass.reads += s.reads;
      first_pass.candidates += s.candidates;
      first_pass.filter_rejected += s.filter_rejected;
      first_pass.verified += s.verified;
      first_pass.qualified += s.qualified;
      first_pass.timings.peak_wavefront_bytes =
          std::max(first_pass.timings.peak_wavefront_bytes,
                   s.timings.peak_wavefront_bytes);
      first_pass_correct += correct;
    }
    return reads_per_call;
  };
  const u64 copied_before = seq::bases_copied_counter().load();
  const LoopStats stats = closed_loop(args, tracer, cycle, args.trace ? 4 : 3);
  const u64 copied = seq::bases_copied_counter().load() - copied_before;

  if (!args.trace) {
    report_closed_loop(stats, report);
    return;
  }
  report_trace_common(tracer, stats, report);
  std::vector<double> map_ms;
  std::vector<double> verify_ms;
  std::vector<double> seed_filter_ms;
  double verified = 0;
  double verify_s = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name != "map.map") continue;
    const double ms = seconds_between(s.start, s.end) * 1e3;
    for (const auto& [key, value] : s.args) {
      if (key == "verified") verified += value;
      if (key == "verify_ms") {
        map_ms.push_back(ms);
        verify_ms.push_back(value);
        seed_filter_ms.push_back(ms - value);
        verify_s += value / 1e3;
      }
    }
  }
  const auto count = [](auto value) { return static_cast<double>(value); };
  report.metric("map.index_build_s", median(index_build_s), "s");
  report.metric("map.map_ms", median(map_ms), "ms");
  report.metric("map.verify_ms", median(verify_ms), "ms");
  report.metric("map.seed_filter_ms", median(seed_filter_ms), "ms");
  report.metric("map.candidates_per_read",
                count(first_pass.candidates) / count(first_pass.reads),
                "candidates");
  report.metric("map.filter_rejection", first_pass.rejection_rate(), "ratio");
  report.metric("map.qualified_frac",
                count(first_pass.qualified) / count(first_pass.verified),
                "ratio");
  report.metric("map.recall",
                count(first_pass_correct) / count(first_pass.reads), "ratio");
  report.metric("cpu.verify_pairs_per_s", verified / verify_s, "pairs/s");
  report.metric("wfa.peak_wavefront_bytes",
                count(first_pass.timings.peak_wavefront_bytes), "bytes");
  report.metric("seq.bases_copied", count(copied), "bases");
}

}  // namespace perfbench
