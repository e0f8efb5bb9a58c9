#include "align/cli.hpp"

#include "align/registry.hpp"
#include "common/check.hpp"

namespace pimwfa::align {

BatchFlags parse_batch_flags(Cli& cli, const BatchFlags& defaults) {
  BatchFlags out = defaults;
  out.backend = cli.get_string(
      "backend", defaults.backend,
      "execution backend:\n" + backend_registry().describe());

  const BatchOptions& d = defaults.options;
  BatchOptions& o = out.options;
  o.penalties.mismatch = static_cast<i32>(
      cli.get_int("mismatch", d.penalties.mismatch, "mismatch penalty (x)"));
  o.penalties.gap_open = static_cast<i32>(
      cli.get_int("gap-open", d.penalties.gap_open, "gap-open penalty (o)"));
  o.penalties.gap_extend = static_cast<i32>(cli.get_int(
      "gap-extend", d.penalties.gap_extend, "gap-extend penalty (e)"));
  o.cpu_threads = static_cast<usize>(cli.get_int(
      "threads", static_cast<i64>(d.cpu_threads), "CPU worker threads"));
  o.pim_dpus = static_cast<usize>(
      cli.get_int("dpus", static_cast<i64>(d.pim_dpus),
                  "PIM system size (0 = the paper's 2560 DPUs)"));
  o.pim_tasklets = static_cast<usize>(cli.get_int(
      "tasklets", static_cast<i64>(d.pim_tasklets), "tasklets per DPU"));
  o.pim_packed = cli.get_bool("packed", d.pim_packed,
                              "2-bit packed host<->MRAM transfers");
  o.pim_pipeline = cli.get_bool(
      "pipeline", d.pim_pipeline,
      "overlap scatter/kernel/gather across chunks (PIM side)");
  o.pim_pipeline_chunks = static_cast<usize>(
      cli.get_int("chunks", static_cast<i64>(d.pim_pipeline_chunks),
                  "pipeline chunk count (0 = planner; needs --pipeline)"));
  o.hybrid_cpu_fraction =
      cli.get_double("cpu-fraction", d.hybrid_cpu_fraction,
                     "hybrid CPU share (negative = calibrate)");
  o.cpu_simd = cli.get_bool(
      "cpu-simd", d.cpu_simd,
      "route CPU-side alignment through the SIMD layer (cpu-simd)");
  const std::string memory = cli.get_string(
      "memory", memory_mode_name(d.memory_mode),
      "wavefront memory mode: high (retain all), low (score-only ring), "
      "ultralow (BiWFA, O(s) peak - long reads)");
  if (!cli.help_requested()) o.memory_mode = parse_memory_mode(memory);

  out.pairs = static_cast<usize>(
      cli.get_int("pairs", static_cast<i64>(defaults.pairs), "read pairs"));
  out.read_length = static_cast<usize>(cli.get_int(
      "read-length", static_cast<i64>(defaults.read_length), "read length"));
  out.error_rate = cli.get_double("error-rate", defaults.error_rate,
                                  "edit-distance threshold E");
  out.seed = static_cast<u64>(
      cli.get_int("seed", static_cast<i64>(defaults.seed), "dataset seed"));
  out.score_only = cli.get_bool("score-only", defaults.score_only,
                                "skip CIGAR backtraces");

  if (!cli.help_requested()) {
    if (!backend_registry().contains(out.backend)) {
      throw InvalidArgument("unknown --backend '" + out.backend +
                            "' (registered: " +
                            backend_registry().joined_names() + ")");
    }
    o.validate();
  }
  return out;
}

}  // namespace pimwfa::align
