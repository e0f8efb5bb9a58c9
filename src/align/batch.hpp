// Unified batch-aligner interface: the batch-level sibling of PairAligner.
//
// The paper's central comparison pits a CPU WFA baseline against the PIM
// system; this header gives both (and anything in between, e.g. the hybrid
// CPU+PIM dispatcher) one vocabulary - BatchOptions in, BatchResult with
// BatchTimings out - so benches, examples and tests talk to every
// execution backend through the same interface. Backends are constructed
// by name through the registry (align/registry.hpp) and driven either
// directly or through the asynchronous BatchEngine
// (align/batch_engine.hpp).
#pragma once

#include <string>
#include <vector>

#include "align/penalties.hpp"
#include "align/result.hpp"
#include "common/thread_pool.hpp"
#include "seq/dataset.hpp"
#include "seq/view.hpp"

namespace pimwfa::align {

// One options struct covering every backend. Backend-specific knobs are
// plain scalars so this header stays below the cpu/pim layers; each
// backend translates the fields it cares about into its native options
// (cpu::CpuBatchOptions, pim::PimOptions) and ignores the rest.
// Wavefront retention policy, the batch-level mirror of
// wfa::WfaAligner::MemoryMode (kept as a separate enum so this header
// stays below the wfa layer). kHigh retains everything (O(s^2) memory),
// kLow rings score-only wavefronts, kUltralow is the bidirectional BiWFA
// pass: O(s) peak memory at ~2x compute with bit-identical scores and
// CIGARs - the mode that unlocks 10kb-1Mb long reads.
enum class MemoryMode { kHigh, kLow, kUltralow };

// Parse/print helpers for the --memory flag ("high" / "low" / "ultralow").
MemoryMode parse_memory_mode(const std::string& name);
const char* memory_mode_name(MemoryMode mode);

struct BatchOptions {
  Penalties penalties = Penalties::defaults();
  // Wavefront retention of every WFA instance the backend spawns (CPU
  // workers, calibration samples, PIM host-side fallbacks).
  MemoryMode memory_mode = MemoryMode::kHigh;

  // --- CPU backend -------------------------------------------------------
  // Host worker threads for the measured run (0 = hardware concurrency).
  usize cpu_threads = 1;
  // Calibration override: modeled single-thread seconds per pair on one
  // core of the paper's CPU. When > 0 the CPU model skips the host
  // measurement and becomes fully deterministic (used by the CI perf
  // gate); 0 measures and projects via CpuSystemModel::host_core_ratio.
  double cpu_per_pair_seconds = 0;
  // Route the CPU backend through the SIMD layer (cpu/simd/): vectorized
  // WFA kernels plus exact fast paths, bit-identical to the scalar path.
  // The dispatch level is the highest the build and host support, unless
  // the PIMWFA_FORCE_SIMD environment variable pins a lower one. This is
  // what the "cpu-simd" registry entry sets, and the hybrid backend's
  // CPU share inherits it.
  bool cpu_simd = false;
  // Fast-path gate: maximum edits a SIMD fast path may absorb before the
  // pair falls back to the full WFA (0 = auto, see simd::FastPathConfig).
  usize cpu_simd_edit_threshold = 0;

  // --- PIM backend -------------------------------------------------------
  // 0 = the paper's 2560-DPU system; otherwise a tiny(n) single-rank
  // system (tests, examples).
  usize pim_dpus = 0;
  usize pim_tasklets = 24;
  bool pim_packed = false;    // 2-bit packed host<->MRAM transfers
  bool pim_pipeline = false;  // overlap scatter/kernel/gather across chunks
  usize pim_pipeline_chunks = 0;  // 0 = planner; nonzero needs pim_pipeline
  u64 pim_max_score = 0;  // per-batch score cap (0 = worst case)

  // --- hybrid backend ----------------------------------------------------
  // Fraction of the batch routed to the CPU. Negative = calibrate from
  // the modeled throughputs of both sides (the default); [0, 1] forces
  // the split (0 = all PIM, 1 = all CPU).
  double hybrid_cpu_fraction = -1.0;

  // Throws InvalidArgument on out-of-range fields.
  void validate() const;
};

// Unified timing vocabulary. Every backend fills the fields that apply to
// it and leaves the rest zero; `modeled_seconds` is always the headline
// end-to-end number on the paper-shaped target hardware.
struct BatchTimings {
  // Host wall time actually spent running/simulating this batch.
  double wall_seconds = 0;
  // Modeled end-to-end time on the target system: the roofline projection
  // for the CPU backend, PimTimings::total_seconds() for the PIM
  // backends, max(cpu share, pim share) for the hybrid split.
  double modeled_seconds = 0;

  usize pairs = 0;  // modeled batch size (>= results.size())

  // CPU-side detail (cpu + hybrid backends).
  double cpu_wall_seconds = 0;
  double cpu_modeled_seconds = 0;  // modeled time of the CPU share
  usize cpu_pairs = 0;             // share of `pairs` routed to the CPU

  // PIM-side detail (pim + hybrid backends).
  double pim_modeled_seconds = 0;  // modeled time of the PIM share
  double scatter_seconds = 0;
  double kernel_seconds = 0;
  double gather_seconds = 0;
  u64 bytes_to_device = 0;
  u64 bytes_from_device = 0;
  usize pim_pairs = 0;       // share of `pairs` routed to the PIM side
  usize pipeline_chunks = 0; // > 1 when the PIM side ran pipelined

  // Peak wavefront bytes live at once in any single WFA instance (max
  // over workers): the memory-mode figure of merit. Zero for runs that
  // never touch the WFA arena (pure fast-path SIMD batches).
  u64 peak_wavefront_bytes = 0;

  // Bases deep-copied on this run's thread to carve sub-batches (hybrid
  // split, calibration samples, sharded submission). Zero since the batch
  // stack moved to seq::ReadPairSpan views; the CI perf gate pins it there
  // so the O(total bases) slice copies cannot silently return.
  u64 bases_copied = 0;

  // Hybrid split: fraction of `pairs` on the CPU (1 for the cpu backend,
  // 0 for the pim backends).
  double cpu_fraction = 0;
  // Modeled time of running the *whole* batch on one side alone
  // (hybrid backend only; how the split was calibrated).
  double cpu_alone_seconds = 0;
  double pim_alone_seconds = 0;

  // Modeled pairs per second.
  double throughput() const {
    return modeled_seconds > 0
               ? static_cast<double>(pairs) / modeled_seconds
               : 0.0;
  }
};

struct BatchResult {
  // Results for pairs [0, results.size()), a contiguous prefix of the
  // input batch: the whole batch unless the backend is a pim backend that
  // simulates only part of the system (PimOptions::simulate_dpus). The
  // align/ drivers (BatchEngine::run_sharded, AlignService) reject such
  // a partial batch.
  std::vector<AlignmentResult> results;
  BatchTimings timings;
  std::string backend;  // registry key of the backend that ran
};

// Batch-level aligner interface. Implementations must be safe to call
// concurrently from multiple threads on distinct batches (the BatchEngine
// keeps several batches in flight against one instance); per-run state
// lives on the stack of run().
class BatchAligner {
 public:
  virtual ~BatchAligner() = default;

  // Align every pair of `batch` and report unified timings. The batch is
  // a non-owning view: the caller's pair storage must stay alive (and
  // unmodified) for the duration of the call; a ReadPairSet converts
  // implicitly. `pool`, if given, parallelizes host-side work (CPU worker
  // threads, PIM simulation); it never changes results or modeled
  // timings.
  virtual BatchResult run(seq::ReadPairSpan batch, AlignmentScope scope,
                          ThreadPool* pool = nullptr) = 0;

  // Registry key / report name ("cpu", "pim", "hybrid", ...).
  virtual std::string name() const = 0;
};

}  // namespace pimwfa::align
