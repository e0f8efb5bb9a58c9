#include "model/fig1.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "cpu/cpu_batch.hpp"
#include "seq/generator.hpp"

namespace pimwfa::model {
namespace {

// The measured sample is the share of the first `simulate_dpus` DPUs under
// an even distribution of the full batch - the heaviest-loaded DPUs, so
// the kernel-time extrapolation is conservative.
usize sample_size(usize pairs, usize logical_dpus, usize simulate_dpus) {
  const auto [begin, end] = pim::PimBatchAligner::dpu_pair_range(
      pairs, logical_dpus, simulate_dpus - 1);
  (void)begin;
  return end;
}

}  // namespace

Fig1Result run_fig1(const Fig1Options& options, ThreadPool* pool) {
  PIMWFA_ARG_CHECK(options.pairs >= options.system.nr_dpus(),
                   "need at least one pair per DPU");
  PIMWFA_ARG_CHECK(options.simulate_dpus >= 1, "simulate at least one DPU");

  Fig1Result out;
  out.options = options;
  const align::AlignmentScope scope = options.full_alignment
                                          ? align::AlignmentScope::kFull
                                          : align::AlignmentScope::kScoreOnly;

  for (const double error_rate : options.error_rates) {
    Fig1GroupDetail detail;
    detail.error_rate = error_rate;

    const usize logical = options.system.nr_dpus();
    const usize sim = std::min(options.simulate_dpus, logical);
    const usize sample = sample_size(options.pairs, logical, sim);
    detail.sample_pairs = sample;

    seq::GeneratorConfig gen;
    gen.pairs = sample;
    gen.read_length = options.read_length;
    gen.error_rate = error_rate;
    gen.seed = options.seed + static_cast<u64>(error_rate * 1000);
    const seq::ReadPairSet batch = seq::generate_dataset(gen);

    // --- CPU side: measure single-thread on the sample, project --------
    cpu::CpuBatchAligner cpu_aligner(cpu::CpuBatchOptions{options.penalties, 1});
    cpu::CpuBatchResult cpu_result;
    double best_seconds = 0;
    for (usize rep = 0; rep < std::max<usize>(options.cpu_repeats, 1); ++rep) {
      cpu::CpuBatchResult attempt = cpu_aligner.align_batch(batch, scope);
      if (rep == 0 || attempt.seconds < best_seconds) {
        best_seconds = attempt.seconds;
        cpu_result = std::move(attempt);
      }
    }
    const double scale =
        static_cast<double>(options.pairs) / static_cast<double>(sample);
    detail.cpu_t1_sample_seconds = best_seconds;
    // Project this machine's single-thread time onto one core of the
    // paper's Xeon (see CpuSystemModel::host_core_ratio).
    detail.cpu_t1_seconds =
        best_seconds * scale * options.cpu_system.host_core_ratio;

    detail.cpu_traffic_bytes = cpu::estimate_batch_traffic(
        options.pairs,
        static_cast<u64>(
            static_cast<double>(cpu_result.work.allocated_bytes) * scale));
    const cpu::ScalingModel scaling(options.cpu_system, detail.cpu_t1_seconds,
                                    detail.cpu_traffic_bytes);
    detail.memory_floor_seconds = scaling.memory_floor_seconds();
    detail.saturation_threads = scaling.saturation_threads();

    for (const usize threads : options.cpu_threads) {
      const double seconds = scaling.project(threads);
      out.rows.push_back({error_rate, strprintf("CPU %zut", threads), seconds,
                          static_cast<double>(options.pairs) / seconds});
      if (threads == options.cpu_system.max_threads()) {
        detail.cpu_56t_seconds = seconds;
      }
    }
    if (detail.cpu_56t_seconds == 0) {
      detail.cpu_56t_seconds = scaling.project(options.cpu_system.max_threads());
    }

    // --- PIM side -------------------------------------------------------
    pim::PimOptions pim_options;
    pim_options.system = options.system;
    pim_options.nr_tasklets = options.nr_tasklets;
    pim_options.penalties = options.penalties;
    pim_options.simulate_dpus = sim;
    pim_options.virtual_total_pairs = options.pairs;
    pim::PimBatchAligner pim_aligner(pim_options);
    const pim::PimBatchResult pim_result =
        pim_aligner.align_batch(batch, scope, pool);
    detail.pim = pim_result.timings;

    // Cross-check: PIM results equal CPU results on every simulated pair
    // (the paper's "no algorithmic change" claim as an assertion).
    PIMWFA_CHECK(pim_result.results.size() <= cpu_result.results.size(),
                 "PIM produced more results than pairs");
    for (usize i = 0; i < pim_result.results.size(); ++i) {
      PIMWFA_CHECK(pim_result.results[i].score == cpu_result.results[i].score,
                   "PIM/CPU score mismatch on pair " << i);
      if (options.full_alignment) {
        PIMWFA_CHECK(pim_result.results[i].cigar == cpu_result.results[i].cigar,
                     "PIM/CPU CIGAR mismatch on pair " << i);
      }
    }
    detail.verified_pairs = pim_result.results.size();

    const double total = pim_result.timings.total_seconds();
    const double kernel = pim_result.timings.kernel_seconds;
    out.rows.push_back({error_rate, "PIM Total", total,
                        static_cast<double>(options.pairs) / total});
    out.rows.push_back({error_rate, "PIM Kernel", kernel,
                        static_cast<double>(options.pairs) / kernel});
    detail.speedup_total = detail.cpu_56t_seconds / total;
    detail.speedup_kernel = detail.cpu_56t_seconds / kernel;
    out.details.push_back(detail);
  }
  return out;
}

void Fig1Result::print(std::ostream& os) const {
  os << "Fig. 1 - time for aligning " << with_commas(options.pairs)
     << " read pairs (" << options.read_length << "bp, penalties "
     << options.penalties.to_string() << ")\n";
  os << "CPU model: " << options.cpu_system.name << "; PIM: "
     << options.system.to_string() << "\n\n";
  os << strprintf("  %-6s %-12s %12s %16s\n", "E", "config", "time",
                  "pairs/s");
  os << "  " << std::string(50, '-') << "\n";
  for (const Fig1Row& row : rows) {
    os << strprintf("  %-6s %-12s %12s %16s\n",
                    strprintf("%.0f%%", row.error_rate * 100).c_str(),
                    row.config.c_str(),
                    format_seconds(row.seconds).c_str(),
                    with_commas(static_cast<u64>(row.throughput)).c_str());
  }
  os << "\n";
  for (const Fig1GroupDetail& detail : details) {
    os << strprintf(
        "  E=%.0f%%: PIM Total %.2fx, PIM Kernel %.2fx vs 56-thread CPU "
        "(paper: 4.87x/37.4x at 2%%, 4.05x/12.3x at 4%%)\n",
        detail.error_rate * 100, detail.speedup_total, detail.speedup_kernel);
    os << strprintf(
        "          CPU: T1 %s, memory floor %s, saturates at %zu threads\n",
        format_seconds(detail.cpu_t1_seconds).c_str(),
        format_seconds(detail.memory_floor_seconds).c_str(),
        detail.saturation_threads);
    os << strprintf(
        "          scatter %s + kernel %s + gather %s; %s to DPUs, %s back; "
        "%llu pairs cross-checked PIM==CPU\n",
        format_seconds(detail.pim.scatter_seconds).c_str(),
        format_seconds(detail.pim.kernel_seconds).c_str(),
        format_seconds(detail.pim.gather_seconds).c_str(),
        format_bytes(detail.pim.bytes_to_device).c_str(),
        format_bytes(detail.pim.bytes_from_device).c_str(),
        static_cast<unsigned long long>(detail.verified_pairs));
  }
}

void Fig1Result::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open '" + path + "' for writing");
  os << "error_rate,config,seconds,pairs_per_second\n";
  for (const Fig1Row& row : rows) {
    os << row.error_rate << "," << row.config << "," << row.seconds << ","
       << row.throughput << "\n";
  }
}

}  // namespace pimwfa::model
