#include "pim/host.hpp"

#include <algorithm>
#include <cstring>
#include <future>

#include "align/penalties.hpp"
#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "cpu/simd/simd.hpp"
#include "pim/dpu_wfa_kernel.hpp"
#include "pim/tiling.hpp"
#include "seq/packed.hpp"

namespace pimwfa::pim {
namespace {

// One MRAM record: a whole pair, or a tile segment whose seam components
// ride in the top bits of the length fields (pim/layout.hpp).
struct Record {
  std::string_view pattern;
  std::string_view text;
  u32 begin_comp = 0;
  u32 end_comp = 0;
};

// Stages one record into its MRAM slot directly from the batch view's
// string storage: plain mode memcpys the bases, packed mode 2-bit-packs
// them, either way without an intermediate host-side copy of the pair.
void write_record(upmem::PimSystem& system, usize d, const BatchLayout& layout,
                  const Record& r, usize slot, bool packed,
                  std::vector<u8>& buffer) {
  buffer.assign(static_cast<usize>(layout.header().pair_stride), 0);
  const u32 lens[2] = {encode_pair_len(r.pattern.size(), r.begin_comp),
                       encode_pair_len(r.text.size(), r.end_comp)};
  std::memcpy(buffer.data(), lens, 8);
  if (packed) {
    seq::PackedSequence::pack_into(r.pattern, buffer.data() + 8);
    seq::PackedSequence::pack_into(
        r.text, buffer.data() + 8 + layout.pattern_field_bytes());
  } else {
    std::memcpy(buffer.data() + 8, r.pattern.data(), r.pattern.size());
    std::memcpy(buffer.data() + 8 + layout.pattern_field_bytes(),
                r.text.data(), r.text.size());
  }
  system.copy_to_mram(d, layout.pair_addr(slot), buffer);
}

// The 2-bit packer holds exactly A, C, G and T. A packed run screens the
// whole batch before anything is staged, so lower case or N fails up
// front with the pair named instead of mid-scatter.
void check_packable(seq::ReadPairSpan batch) {
  for (usize i = 0; i < batch.size(); ++i) {
    for (const bool is_pattern : {true, false}) {
      const std::string_view s = is_pattern ? batch.pattern(i) : batch.text(i);
      const auto bad =
          std::find_if_not(s.begin(), s.end(), seq::is_packable_base);
      PIMWFA_ARG_CHECK(bad == s.end(),
                       "packed PIM batch: pair "
                           << i << (is_pattern ? " pattern" : " text")
                           << " has '" << *bad << "' at position "
                           << bad - s.begin() << "; only A, C, G and T pack");
    }
  }
}

align::AlignmentResult read_result_record(const upmem::PimSystem& system,
                                          usize d, const BatchLayout& layout,
                                          usize slot, bool full,
                                          std::vector<u8>& record) {
  record.resize(static_cast<usize>(layout.header().result_stride));
  system.copy_from_mram(d, layout.result_addr(slot), record);
  u32 head[2];
  std::memcpy(head, record.data(), 8);
  align::AlignmentResult result;
  result.score = static_cast<i64>(head[0]);
  if (full) {
    const usize len = head[1];
    PIMWFA_CHECK(8 + len <= record.size(),
                 "DPU result CIGAR overruns its record");
    result.cigar = seq::Cigar::from_ops(
        std::string(reinterpret_cast<const char*>(record.data() + 8), len));
    result.has_cigar = true;
  }
  return result;
}

// Everything the chunked loop needs about one batch run.
struct BatchRun {
  const PimOptions& options;
  seq::ReadPairSpan batch;
  upmem::PimSystem& system;
  // Tiled runs: record i is segments[i] of its pair. Otherwise record i is
  // pair i of `batch`.
  const std::vector<TileSegment>* segments = nullptr;
  // The DPU kernels' host-side extension scan.
  wfa::MatchRunFn match_run = nullptr;
  bool full = false;
  usize logical = 0;
  usize simulated = 0;
  // Records spread over the logical system: the (virtual) pair count, or
  // the segment count of a tiled run.
  usize records = 0;
  usize max_pattern = 0;
  usize max_text = 0;

  BatchLayout layout_for(usize nr_records) const {
    BatchLayout::Params params;
    params.nr_pairs = nr_records;
    params.nr_tasklets = options.nr_tasklets;
    params.max_pattern = max_pattern;
    params.max_text = max_text;
    params.penalties = options.penalties;
    params.full_alignment = full;
    params.policy = options.policy;
    params.packed_sequences = options.packed_sequences;
    params.max_score = options.max_score;
    return BatchLayout::plan(params, options.system.mram_bytes);
  }

  std::pair<usize, usize> range_of(usize d) const {
    return PimBatchAligner::dpu_pair_range(records, logical, d);
  }

  // Records covered by the simulated prefix (= the result count).
  usize simulated_records() const { return range_of(simulated - 1).second; }

  Record record(usize i) const {
    if (segments == nullptr) return {batch.pattern(i), batch.text(i)};
    const TileSegment& s = (*segments)[i];
    return {batch.pattern(s.pair).substr(s.v0, s.v1 - s.v0),
            batch.text(s.pair).substr(s.h0, s.h1 - s.h0),
            static_cast<u32>(s.begin), static_cast<u32>(s.end)};
  }
};

// Chunk count: 1 unless pipelining is on and the planner (or a forced
// count) splits the batch.
usize plan_chunks(const BatchRun& run, const BatchHeader& strides) {
  if (!run.options.pipeline) return 1;
  PipelineSchedule::Params params;
  params.pairs = run.records;
  params.nr_dpus = run.logical;
  params.nr_tasklets = run.options.nr_tasklets;
  params.scatter_bytes =
      static_cast<u64>(run.records) * strides.pair_stride +
      static_cast<u64>(run.logical) * sizeof(BatchHeader);
  params.gather_bytes = static_cast<u64>(run.records) * strides.result_stride;
  params.host_bandwidth = run.system.cost_model().transfer_bandwidth(
      run.system.ranks_spanned(0, run.logical));
  params.launch_overhead_seconds = run.options.system.host_launch_overhead_s;
  params.requested_chunks = run.options.pipeline_chunks;
  return PipelineSchedule::plan(params).chunks();
}

// The one scatter -> kernel -> gather implementation. Every DPU's record
// share is cut into tasklet-aligned chunk slices (PipelineSchedule::slice),
// and at tick t scatter(t), kernel(t-1) and gather(t-2) are in flight
// together. One chunk is the synchronous law: three single-stage ticks, no
// launch-argument bytes, an additive Total and the pipeline fields left
// at 0. Simulated DPUs move real bytes; the stage volumes that feed the
// cost model count every logical DPU's records by their strides.
PimBatchResult run_chunks(const BatchRun& run, ThreadPool* pool) {
  const PimOptions& options = run.options;
  upmem::PimSystem& system = run.system;
  const usize tasklets = options.nr_tasklets;

  // The simulated prefix carries the ceil shares, so its layouts bound the
  // unsimulated DPUs' layouts too.
  std::vector<BatchLayout> layouts;
  layouts.reserve(run.simulated);
  for (usize d = 0; d < run.simulated; ++d) {
    const auto [begin, end] = run.range_of(d);
    layouts.push_back(run.layout_for(end - begin));
  }
  const BatchHeader& strides = layouts.front().header();
  const usize chunks = plan_chunks(run, strides);
  const auto slice_of = [&](usize d, usize c) {
    const auto [begin, end] = run.range_of(d);
    const auto [sb, se] =
        PipelineSchedule::slice(end - begin, chunks, c, tasklets);
    return std::pair<usize, usize>{begin + sb, begin + se};
  };

  std::vector<u64> scatter_bytes(chunks, 0);
  std::vector<u64> gather_bytes(chunks, 0);
  for (usize d = 0; d < run.logical; ++d) {
    for (usize c = 0; c < chunks; ++c) {
      const auto [sb, se] = slice_of(d, c);
      scatter_bytes[c] += static_cast<u64>(se - sb) * strides.pair_stride;
      gather_bytes[c] += static_cast<u64>(se - sb) * strides.result_stride;
    }
  }
  scatter_bytes[0] += static_cast<u64>(run.logical) * sizeof(BatchHeader);
  if (chunks > 1) {
    // Slice bounds travel as per-launch kernel arguments.
    for (u64& bytes : scatter_bytes) {
      bytes += static_cast<u64>(run.logical) * WfaDpuKernel::kLaunchArgBytes;
    }
  }

  PimBatchResult out;
  out.results.resize(run.simulated_records());
  std::vector<upmem::LaunchStats> launches(chunks);
  std::vector<std::vector<u64>> launch_cycles(chunks);

  // Stage bodies. Each touches only its chunk's slice of every DPU (chunk
  // 0's scatter also stages the headers), so stages of different chunks
  // access disjoint MRAM bytes, which the paged MRAM makes data-race free.
  auto scatter = [&](usize c) {
    std::vector<u8> buffer;
    for (usize d = 0; d < run.simulated; ++d) {
      const BatchLayout& layout = layouts[d];
      if (c == 0) {
        const BatchHeader& h = layout.header();
        system.copy_to_mram(
            d, 0, {reinterpret_cast<const u8*>(&h), sizeof(BatchHeader)});
      }
      const usize begin = run.range_of(d).first;
      const auto [sb, se] = slice_of(d, c);
      for (usize i = sb; i < se; ++i) {
        write_record(system, d, layout, run.record(i), i - begin,
                     options.packed_sequences, buffer);
      }
    }
  };
  auto kernel = [&](usize c) {
    launches[c] = system.launch_group(
        0, run.simulated,
        [&, c](usize d) {
          const usize begin = run.range_of(d).first;
          const auto [sb, se] = slice_of(d, c);
          return std::make_unique<WfaDpuKernel>(static_cast<u64>(sb - begin),
                                                static_cast<u64>(se - sb),
                                                run.match_run);
        },
        tasklets, pool, &launch_cycles[c]);
  };
  auto gather = [&](usize c) {
    std::vector<u8> buffer;
    for (usize d = 0; d < run.simulated; ++d) {
      const usize begin = run.range_of(d).first;
      const auto [sb, se] = slice_of(d, c);
      for (usize i = sb; i < se; ++i) {
        out.results[i] = read_result_record(system, d, layouts[d], i - begin,
                                            run.full, buffer);
      }
    }
  };

  // A tick with one stage (every tick of a one-chunk run) runs on the
  // calling thread, so its kernel stage spreads DPUs over `pool`. Stages
  // of a multi-stage tick run on `pool` when it has workers to spare, and
  // a kernel stage on a worker then runs its DPUs inline. The modeled
  // timing is identical either way.
  const bool concurrent = pool != nullptr && pool->size() >= 2;
  for (usize tick = 0; tick < chunks + 2; ++tick) {
    std::vector<std::function<void()>> stages;
    if (tick < chunks) stages.push_back([&, tick] { scatter(tick); });
    if (tick >= 1 && tick - 1 < chunks) {
      stages.push_back([&, tick] { kernel(tick - 1); });
    }
    if (tick >= 2) stages.push_back([&, tick] { gather(tick - 2); });
    if (stages.size() == 1 || !concurrent) {
      for (auto& stage : stages) stage();
      continue;
    }
    std::vector<std::future<void>> inflight;
    inflight.reserve(stages.size());
    for (auto& stage : stages) inflight.push_back(pool->submit(stage));
    std::exception_ptr first_error;
    for (auto& f : inflight) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  // --- timings ---------------------------------------------------------
  const upmem::CostModel& model = system.cost_model();
  const usize ranks = system.ranks_spanned(0, run.logical);
  std::vector<ChunkTiming> chunk_timings(chunks);
  PimTimings& t = out.timings;
  for (usize c = 0; c < chunks; ++c) {
    ChunkTiming& ct = chunk_timings[c];
    ct.scatter_seconds = model.transfer_seconds(scatter_bytes[c], ranks);
    ct.kernel_seconds = launches[c].kernel_seconds(options.system);
    ct.gather_seconds = model.transfer_seconds(gather_bytes[c], ranks);
    ct.launch_overhead_seconds = options.system.host_launch_overhead_s;
    ct.dpu_kernel_seconds.reserve(launch_cycles[c].size());
    for (const u64 cycles : launch_cycles[c]) {
      ct.dpu_kernel_seconds.push_back(options.system.cycles_to_seconds(cycles));
    }
    t.scatter_seconds += ct.scatter_seconds;
    t.kernel_seconds += ct.kernel_seconds;
    t.gather_seconds += ct.gather_seconds;
    t.kernel_cycles_max += launches[c].max_cycles;
    t.kernel_cycles_total += launches[c].total_cycles;
    t.bytes_to_device += scatter_bytes[c];
    t.bytes_from_device += gather_bytes[c];
    t.work.merge(launches[c].combined);
  }
  if (chunks > 1) {
    const PipelineModel pipeline = PipelineModel::from_chunks(chunk_timings);
    t.chunks = chunks;
    t.pipelined_total_seconds = pipeline.total_seconds;
    t.fill_seconds = pipeline.fill_seconds;
    t.drain_seconds = pipeline.drain_seconds;
    t.steady_state_seconds = pipeline.steady_state_seconds;
    t.overlap_saved_seconds = pipeline.overlap_saved_seconds;
  }
  t.pairs = run.records;
  t.logical_dpus = run.logical;
  t.simulated_dpus = run.simulated;
  t.nr_tasklets = tasklets;
  return out;
}

// --- long-pair tiling ---------------------------------------------------

// Bases (pattern + text) one tasklet's WRAM share can host. The engine
// keeps per-field sequence buffers plus - in full-alignment mode - a
// CIGAR buffer of max_pattern + max_text bytes resident, next to ~1.3 KiB
// of fixed storage (staged header, 9 offset windows, stage word). The
// buffers are sized by the batch's per-field maxima, and lopsided
// segments (a long deletion next to a long insertion) can push each field
// toward the cap independently, so provision 2 * (cap + cap).
usize wram_segment_bases(const upmem::SystemConfig& system,
                         usize nr_tasklets) {
  const u64 per_tasklet = system.wram_bytes / nr_tasklets;
  constexpr u64 kFixedBytes = 1536;
  if (per_tasklet <= kFixedBytes + 64) return 0;
  return static_cast<usize>((per_tasklet - kFixedBytes) / 4);
}

// Score bound a segment batch must provision for: span alignments can
// cost slightly more than the plain worst case (a forced boundary
// component appends at most one extra gap pair and a mismatch).
u64 span_score_cap(const PimOptions& options, usize max_p, usize max_t) {
  if (options.max_score != 0) return options.max_score;
  const align::Penalties& pen = options.penalties;
  return static_cast<u64>(align::worst_case_score(pen, max_p, max_t) +
                          2 * (pen.gap_open + pen.gap_extend) + pen.mismatch);
}

// Offset-heap bytes one tasklet gets under a given record geometry.
u64 tiling_arena_budget(const PimOptions& options, bool full,
                        usize per_dpu_items, usize max_p, usize max_t) {
  BatchLayout::Params params;
  params.nr_pairs = std::max<usize>(per_dpu_items, 1);
  params.nr_tasklets = options.nr_tasklets;
  params.max_pattern = max_p;
  params.max_text = max_t;
  params.penalties = options.penalties;
  params.full_alignment = full;
  params.policy = options.policy;
  params.packed_sequences = options.packed_sequences;
  params.max_score = span_score_cap(options, max_p, max_t);
  const BatchLayout probe =
      BatchLayout::plan(params, options.system.mram_bytes);
  const u64 reserved = probe.desc_table_bytes() + 4096;
  const u64 stride = probe.header().scratch_stride;
  return stride > reserved ? stride - reserved : 0;
}

i64 pair_score_bound(const PimOptions& options, usize pl, usize tl) {
  i64 bound = align::worst_case_score(options.penalties, pl, tl);
  if (options.max_score != 0) {
    bound = std::min(bound, static_cast<i64>(options.max_score));
  }
  return bound;
}

// Indices of pairs that cannot run as single records. The WRAM sequence
// share is a hard wall either way. The arena estimate is worst-case
// (actual scores are usually far lower), so it only routes pairs to the
// tiling planner - which prices the real score - and never rejects an
// untiled run, where the arena is still probed by running, as it always
// was.
std::vector<usize> screen_oversized(const PimOptions& options,
                                    seq::ReadPairSpan batch, bool full,
                                    usize virtual_n, usize logical,
                                    usize max_pattern, usize max_text,
                                    usize* seg_bases_out, u64* budget_out) {
  const usize seg_bases =
      options.tile_max_segment_bases != 0
          ? options.tile_max_segment_bases
          : wram_segment_bases(options.system, options.nr_tasklets);
  *seg_bases_out = seg_bases;
  *budget_out = 0;
  std::vector<usize> oversized;
  if (seg_bases == 0) return oversized;
  const usize probe_max_p = std::min(max_pattern, seg_bases);
  const usize probe_max_t = std::min(max_text, seg_bases);
  const u64 budget =
      tiling_arena_budget(options, full, (virtual_n + logical - 1) / logical,
                          probe_max_p, probe_max_t);
  *budget_out = budget;
  for (usize p = 0; p < batch.size(); ++p) {
    const usize pl = batch.pattern(p).size();
    const usize tl = batch.text(p).size();
    const bool wram_wall = pl + tl > seg_bases;
    const bool arena_heavy =
        options.tile_long_pairs &&
        TilingPlanner::retained_arena_estimate(
            pair_score_bound(options, pl, tl), pl, tl) > budget;
    if (wram_wall || arena_heavy) oversized.push_back(p);
  }
  return oversized;
}

// The segment batch standing in for the pair batch on the DPUs.
struct TiledBatch {
  std::vector<TileSegment> segments;  // pair-major
  std::vector<std::pair<usize, usize>> pair_ranges;  // segments of pair p
  usize max_pattern = 0;
  usize max_text = 0;
};

// Folds a segment run's per-segment results back into per-pair
// alignments.
void stitch_pairs(PimBatchResult& out, const TiledBatch& tiled, bool full) {
  std::vector<align::AlignmentResult> seg_results = std::move(out.results);
  out.results.clear();
  out.results.reserve(tiled.pair_ranges.size());
  for (const auto& [sb, se] : tiled.pair_ranges) {
    if (se - sb == 1) {
      out.results.push_back(std::move(seg_results[sb]));
    } else {
      ++out.timings.tiled_pairs;
      out.results.push_back(
          stitch_segments(tiled.segments, sb, se, seg_results, full));
    }
  }
  out.timings.pairs = tiled.pair_ranges.size();
  out.timings.tile_segments = tiled.segments.size();
}

}  // namespace

PimOptions PimOptions::from(const align::BatchOptions& batch) {
  PimOptions options;
  options.system = batch.pim_dpus == 0
                       ? upmem::SystemConfig::paper()
                       : upmem::SystemConfig::tiny(batch.pim_dpus);
  options.nr_tasklets = batch.pim_tasklets;
  options.penalties = batch.penalties;
  options.packed_sequences = batch.pim_packed;
  options.max_score = batch.pim_max_score;
  options.pipeline = batch.pim_pipeline;
  options.pipeline_chunks = batch.pim_pipeline_chunks;
  return options;
}

PimBatchAligner::PimBatchAligner(PimOptions options)
    : options_(std::move(options)),
      kernels_(&cpu::simd::wfa_kernels(cpu::simd::active_level())) {
  options_.system.validate();
  options_.penalties.validate();
  PIMWFA_ARG_CHECK(options_.nr_tasklets >= 1 &&
                       options_.nr_tasklets <= options_.system.max_tasklets,
                   "tasklet count outside the DPU's range");
  PIMWFA_ARG_CHECK(options_.pipeline || options_.pipeline_chunks == 0,
                   "pipeline_chunks = " << options_.pipeline_chunks
                       << " needs pipelining on (--pipeline)");
  PIMWFA_ARG_CHECK(
      options_.tile_max_segment_bases == 0 ||
          options_.tile_max_segment_bases >= TilingPlanner::kMinSegmentBases,
      "tile_max_segment_bases = "
          << options_.tile_max_segment_bases << " is below the tiling "
          << "planner's minimum of " << TilingPlanner::kMinSegmentBases
          << " bases (0 derives the bound from the WRAM share)");
}

PimBatchAligner::PimBatchAligner(const align::BatchOptions& batch)
    : PimBatchAligner(PimOptions::from(batch)) {}

std::string PimBatchAligner::name() const { return "pim"; }

bool PimBatchAligner::needs_tiling(seq::ReadPairSpan batch,
                                   align::AlignmentScope scope) const {
  if (options_.policy != MetadataPolicy::kMram || batch.size() == 0) {
    return false;
  }
  usize max_p = 0;
  usize max_t = 0;
  for (usize p = 0; p < batch.size(); ++p) {
    max_p = std::max(max_p, batch.pattern(p).size());
    max_t = std::max(max_t, batch.text(p).size());
  }
  const usize n = std::max<usize>(options_.virtual_total_pairs, batch.size());
  usize seg_bases = 0;
  u64 budget = 0;
  return !screen_oversized(options_, batch,
                           scope == align::AlignmentScope::kFull, n,
                           options_.system.nr_dpus(), max_p, max_t,
                           &seg_bases, &budget)
              .empty();
}

align::BatchResult PimBatchAligner::run(seq::ReadPairSpan batch,
                                        align::AlignmentScope scope,
                                        ThreadPool* pool) {
  WallTimer timer;
  PimBatchResult native = align_batch(batch, scope, pool);
  align::BatchResult out;
  out.backend = name();
  out.results = std::move(native.results);
  const PimTimings& pt = native.timings;
  align::BatchTimings& t = out.timings;
  t.wall_seconds = timer.seconds();
  t.modeled_seconds = pt.total_seconds();
  t.pairs = pt.pairs;
  t.pim_modeled_seconds = t.modeled_seconds;
  t.scatter_seconds = pt.scatter_seconds;
  t.kernel_seconds = pt.kernel_seconds;
  t.gather_seconds = pt.gather_seconds;
  t.bytes_to_device = pt.bytes_to_device;
  t.bytes_from_device = pt.bytes_from_device;
  t.pim_pairs = pt.pairs;
  t.pipeline_chunks = pt.chunks;
  t.pim_alone_seconds = t.modeled_seconds;
  return out;
}

std::pair<usize, usize> PimBatchAligner::dpu_pair_range(usize n, usize nr_dpus,
                                                        usize d) {
  const usize base = n / nr_dpus;
  const usize rem = n % nr_dpus;
  const usize begin = d * base + std::min(d, rem);
  const usize count = base + (d < rem ? 1 : 0);
  return {begin, begin + count};
}

PimBatchResult PimBatchAligner::align_batch(seq::ReadPairSpan batch,
                                            align::AlignmentScope scope,
                                            ThreadPool* pool) {
  // Validate the borrow before MRAM ingestion (checked builds): the
  // scatter/kernel/gather stages - overlapped across pool threads in
  // pipelined mode - hold this span for the whole call, and per-element
  // accesses re-validate while they run.
  batch.check_valid();
  if (options_.packed_sequences) check_packable(batch);
  const usize logical = options_.system.nr_dpus();
  const usize simulated = options_.simulate_dpus == 0
                              ? logical
                              : std::min(options_.simulate_dpus, logical);
  Workspace workspace = take_workspace(simulated);
  upmem::PimSystem& system = *workspace.system;
  // Every successful return hands the workspace back; a throw drops it.
  const auto finish = [&](PimBatchResult out) {
    give_back(std::move(workspace));
    return out;
  };

  BatchRun run{options_, batch, system, nullptr, kernels_->match_run};
  run.full = scope == align::AlignmentScope::kFull;
  run.logical = logical;
  run.simulated = simulated;
  run.max_pattern = batch.max_pattern_length();
  run.max_text = batch.max_text_length();
  // Virtual batches: distribution is computed over `records` pairs, but
  // only the simulated DPUs' pairs exist in `batch`.
  run.records = options_.virtual_total_pairs == 0
                    ? batch.size()
                    : options_.virtual_total_pairs;
  PIMWFA_ARG_CHECK(run.records >= batch.size(),
                   "virtual_total_pairs below the materialized batch");
  if (options_.virtual_total_pairs != 0) {
    const usize last_end = run.simulated_records();
    PIMWFA_ARG_CHECK(batch.size() >= last_end,
                     "batch does not cover the simulated DPUs' share ("
                         << last_end << " pairs needed, " << batch.size()
                         << " provided)");
  }

  // --- long-pair tiling -------------------------------------------------
  // A pair whose sequences outgrow a tasklet's WRAM share, or whose
  // retained wavefronts outgrow the per-tasklet MRAM arena, cannot run as
  // one record. Screen for such pairs and cut their host kUltralow paths
  // into segments (pim/tiling.hpp). Metadata-in-WRAM is exempt: its arenas
  // are far too small for pairs that would ever need tiling.
  if (options_.policy == MetadataPolicy::kMram && batch.size() > 0) {
    usize seg_bases = 0;
    u64 budget = 0;
    const std::vector<usize> oversized =
        screen_oversized(options_, batch, run.full, run.records, logical,
                         run.max_pattern, run.max_text, &seg_bases, &budget);
    if (!oversized.empty()) {
      const usize p0 = oversized.front();
      const usize pl = batch.pattern(p0).size();
      const usize tl = batch.text(p0).size();
      PIMWFA_CHECK(
          options_.tile_long_pairs,
          "pair " << p0 << " (" << pl << "x" << tl
                  << " bases) cannot run untiled: it needs "
                  << TilingPlanner::retained_arena_estimate(
                         pair_score_bound(options_, pl, tl), pl, tl)
                  << " wavefront-arena bytes but a tasklet gets " << budget
                  << ", and " << pl + tl << " sequence bytes against a "
                  << seg_bases
                  << "-base WRAM share; enable tile_long_pairs or lower "
                     "nr_tasklets");
      PIMWFA_ARG_CHECK(options_.virtual_total_pairs == 0,
                       "long-pair tiling cannot run virtual batches: every "
                       "segment must be materialized and stitched");
      PIMWFA_ARG_CHECK(
          simulated == logical,
          "long-pair tiling requires full simulation (simulate_dpus = 0)");

      // Trace the pairs' paths, cut them, then re-probe with the segment
      // batch's real geometry: extra records shrink the per-tasklet arena,
      // so re-cut the same paths under the smaller budget until the plan
      // is self-consistent. The planner runs its split steps on `pool`.
      WallTimer plan_timer;
      if (!workspace.planner) {
        TilingConfig config;
        config.penalties = options_.penalties;
        config.max_segment_bases = seg_bases;
        config.score_cap = options_.max_score;
        config.slots = logical * options_.nr_tasklets;
        workspace.planner = std::make_unique<TilingPlanner>(config, *kernels_);
      }
      TilingPlanner& planner = *workspace.planner;
      planner.trace(batch, oversized, pool);
      TiledBatch tiled;
      u64 plan_budget = budget;
      for (int attempt = 0;; ++attempt) {
        const std::vector<TileSegment> planned = planner.cut(plan_budget);
        tiled.segments.clear();
        tiled.pair_ranges.clear();
        auto next = planned.begin();
        for (usize p = 0; p < batch.size(); ++p) {
          const usize first = tiled.segments.size();
          if (next != planned.end() && next->pair == p) {
            while (next != planned.end() && next->pair == p) {
              tiled.segments.push_back(*next++);
            }
          } else {
            TileSegment whole;
            whole.pair = p;
            whole.v1 = batch.pattern(p).size();
            whole.h1 = batch.text(p).size();
            tiled.segments.push_back(whole);
          }
          tiled.pair_ranges.emplace_back(first, tiled.segments.size());
        }
        tiled.max_pattern = 0;
        tiled.max_text = 0;
        for (const TileSegment& s : tiled.segments) {
          tiled.max_pattern = std::max(tiled.max_pattern, s.pattern_length());
          tiled.max_text = std::max(tiled.max_text, s.text_length());
        }
        const u64 actual = tiling_arena_budget(
            options_, run.full,
            (tiled.segments.size() + logical - 1) / logical,
            tiled.max_pattern, tiled.max_text);
        if (actual >= plan_budget) break;
        PIMWFA_CHECK(attempt < 4,
                     "long-pair tiling failed to converge on an arena budget "
                     "(last " << actual << " bytes per tasklet)");
        plan_budget = actual;
      }
      const double plan_seconds = plan_timer.seconds();

      // The segments run as ordinary records, always as one chunk, and
      // stitch back into per-pair alignments.
      PimOptions tiled_options = options_;
      tiled_options.max_score =
          span_score_cap(options_, tiled.max_pattern, tiled.max_text);
      tiled_options.pipeline = false;
      BatchRun tiled_run{tiled_options, batch, system, &tiled.segments,
                         kernels_->match_run};
      tiled_run.full = run.full;
      tiled_run.logical = logical;
      tiled_run.simulated = simulated;
      tiled_run.max_pattern = tiled.max_pattern;
      tiled_run.max_text = tiled.max_text;
      tiled_run.records = tiled.segments.size();
      PimBatchResult out = run_chunks(tiled_run, pool);
      stitch_pairs(out, tiled, run.full);
      out.timings.tile_plan_seconds = plan_seconds;
      return finish(std::move(out));
    }
  }
  return finish(run_chunks(run, pool));
}

PimBatchAligner::Workspace PimBatchAligner::take_workspace(usize simulated) {
  {
    MutexLock lock(idle_mutex_);
    if (!idle_.empty()) {
      Workspace workspace = std::move(idle_.back());
      idle_.pop_back();
      return workspace;
    }
  }
  return {std::make_unique<upmem::PimSystem>(options_.system, simulated),
          nullptr};
}

void PimBatchAligner::give_back(Workspace workspace) {
  MutexLock lock(idle_mutex_);
  idle_.push_back(std::move(workspace));
}

}  // namespace pimwfa::pim
