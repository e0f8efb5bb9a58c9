// Unit tests for the pipelined-execution building blocks: the
// PipelineSchedule planner and slicer, the three-stage makespan model, the
// stage-granular PimSystem APIs, and the BenchReport JSON serializer the
// perf-gating CI consumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bench_report.hpp"
#include "common/error.hpp"
#include "pim/host.hpp"
#include "pim/pipeline.hpp"
#include "seq/generator.hpp"
#include "upmem/system.hpp"

namespace pimwfa {
namespace {

using pim::ChunkTiming;
using pim::PipelineModel;
using pim::PipelineSchedule;

PipelineSchedule::Params paper_params() {
  PipelineSchedule::Params params;
  params.pairs = 5'000'000;
  params.nr_dpus = 2560;
  params.nr_tasklets = 24;
  params.scatter_bytes = 5'000'000ull * 216;
  params.gather_bytes = 5'000'000ull * 216;
  params.host_bandwidth = 7.2e9;
  params.launch_overhead_seconds = 50e-6;
  return params;
}

// --- slicing -------------------------------------------------------------

TEST(PipelineSlice, ExactPartitionAtEveryGranule) {
  for (const usize n : {0u, 1u, 7u, 8u, 50u, 100u, 1953u}) {
    for (const usize chunks : {1u, 2u, 3u, 7u, 42u}) {
      for (const usize granule : {1u, 8u, 24u}) {
        usize covered = 0;
        usize prev_end = 0;
        for (usize c = 0; c < chunks; ++c) {
          const auto [begin, end] =
              PipelineSchedule::slice(n, chunks, c, granule);
          EXPECT_EQ(begin, prev_end)
              << "n=" << n << " chunks=" << chunks << " g=" << granule;
          EXPECT_LE(end, n);
          covered += end - begin;
          prev_end = end;
        }
        EXPECT_EQ(covered, n)
            << "n=" << n << " chunks=" << chunks << " g=" << granule;
      }
    }
  }
}

TEST(PipelineSlice, BoundariesFallOnGranuleMultiples) {
  const usize n = 100;
  const usize granule = 8;
  for (const usize chunks : {2u, 3u, 4u}) {
    for (usize c = 0; c < chunks; ++c) {
      const auto [begin, end] = PipelineSchedule::slice(n, chunks, c, granule);
      EXPECT_EQ(begin % granule, 0u);
      if (end != n) {
        EXPECT_EQ(end % granule, 0u);
      }
    }
  }
}

TEST(PipelineSlice, RejectsBadArguments) {
  EXPECT_THROW(PipelineSchedule::slice(10, 0, 0), InvalidArgument);
  EXPECT_THROW(PipelineSchedule::slice(10, 2, 2), InvalidArgument);
  EXPECT_THROW(PipelineSchedule::slice(10, 2, 0, 0), InvalidArgument);
}

// --- planner -------------------------------------------------------------

TEST(PipelinePlan, PaperScalePipelinesAggressively) {
  const PipelineSchedule schedule = PipelineSchedule::plan(paper_params());
  EXPECT_GT(schedule.chunks(), 8u);
  EXPECT_LE(schedule.chunks(), 64u);
  EXPECT_TRUE(schedule.pipelined());
}

TEST(PipelinePlan, HonorsRequestUpToRowCount) {
  PipelineSchedule::Params params = paper_params();
  params.requested_chunks = 7;
  EXPECT_EQ(PipelineSchedule::plan(params).chunks(), 7u);
  // 5M/2560 = 1953 pairs/DPU -> 82 tasklet rows: requests beyond that
  // would launch empty chunks. (Raise max_chunks so the row cap binds.)
  params.requested_chunks = 100'000;
  params.max_chunks = 128;
  EXPECT_EQ(PipelineSchedule::plan(params).chunks(), 82u);
  params.max_chunks = 64;
  EXPECT_EQ(PipelineSchedule::plan(params).chunks(), 64u);
}

TEST(PipelinePlan, FallsBackToSynchronousWhenChunkingCannotPay) {
  // Empty or sub-DPU batches.
  PipelineSchedule::Params params = paper_params();
  params.pairs = 0;
  EXPECT_FALSE(PipelineSchedule::plan(params).pipelined());
  params.pairs = 100;  // fewer pairs than DPUs
  EXPECT_FALSE(PipelineSchedule::plan(params).pipelined());

  // Transfers too small to amortize even one extra launch.
  params = paper_params();
  params.pairs = 5120;  // 2 pairs per DPU
  params.scatter_bytes = 5120ull * 216;
  params.gather_bytes = 5120ull * 216;
  EXPECT_FALSE(PipelineSchedule::plan(params).pipelined());
}

TEST(PipelinePlan, OverheadBoundScalesWithTransferTime) {
  PipelineSchedule::Params params = paper_params();
  const usize at_full = PipelineSchedule::plan(params).chunks();
  params.scatter_bytes /= 100;
  params.gather_bytes /= 100;
  const usize at_small = PipelineSchedule::plan(params).chunks();
  EXPECT_LT(at_small, at_full);
}

// --- makespan model ------------------------------------------------------

ChunkTiming make_chunk(double scatter, double kernel, double gather) {
  ChunkTiming chunk;
  chunk.scatter_seconds = scatter;
  chunk.kernel_seconds = kernel;
  chunk.gather_seconds = gather;
  return chunk;
}

TEST(PipelineModel, EmptyChunksYieldZero) {
  const PipelineModel model = PipelineModel::from_chunks({});
  EXPECT_EQ(model.total_seconds, 0.0);
}

TEST(PipelineModel, SingleChunkIsAdditive) {
  const std::vector<ChunkTiming> chunks = {make_chunk(1.0, 2.0, 3.0)};
  const PipelineModel model = PipelineModel::from_chunks(chunks);
  EXPECT_DOUBLE_EQ(model.total_seconds, 6.0);
  EXPECT_DOUBLE_EQ(model.fill_seconds, 1.0);
  EXPECT_DOUBLE_EQ(model.drain_seconds, 3.0);
  EXPECT_DOUBLE_EQ(model.overlap_saved_seconds, 0.0);
}

TEST(PipelineModel, HomogeneousChunksFollowTheSteadyStateLaw) {
  // C identical chunks: total = S + K + G + (C-1) * max(S, K, G).
  const ChunkTiming chunk = make_chunk(2.0, 5.0, 1.0);
  for (const usize c : {2u, 3u, 8u}) {
    const std::vector<ChunkTiming> chunks(c, chunk);
    const PipelineModel model = PipelineModel::from_chunks(chunks);
    EXPECT_DOUBLE_EQ(model.total_seconds,
                     2.0 + 5.0 + 1.0 + static_cast<double>(c - 1) * 5.0)
        << c;
    EXPECT_DOUBLE_EQ(model.overlap_saved_seconds,
                     static_cast<double>(c) * 8.0 - model.total_seconds);
  }
}

TEST(PipelineModel, NeverExceedsAdditiveAndNeverBeatsSlowestStage) {
  const std::vector<ChunkTiming> chunks = {
      make_chunk(0.5, 2.0, 0.1), make_chunk(1.5, 0.2, 0.9),
      make_chunk(0.1, 1.1, 2.0), make_chunk(0.4, 0.4, 0.4)};
  double additive = 0;
  double scatter_sum = 0;
  double kernel_sum = 0;
  double gather_sum = 0;
  for (const ChunkTiming& c : chunks) {
    additive += c.scatter_seconds + c.kernel_seconds + c.gather_seconds;
    scatter_sum += c.scatter_seconds;
    kernel_sum += c.kernel_seconds;
    gather_sum += c.gather_seconds;
  }
  const PipelineModel model = PipelineModel::from_chunks(chunks);
  EXPECT_LE(model.total_seconds, additive);
  EXPECT_GE(model.total_seconds,
            std::max({scatter_sum, kernel_sum, gather_sum}));
  EXPECT_NEAR(model.steady_state_seconds,
              model.total_seconds - model.fill_seconds - model.drain_seconds,
              1e-12);
}

TEST(PipelineModel, PerDpuDetailRemovesTheChunkBarrier) {
  // Two DPUs with anti-correlated chunk costs. A global chunk barrier
  // would serialize on each chunk's slowest DPU (2 + 2 = 4); async
  // launches let each DPU progress independently, so the kernel critical
  // path is the slowest DPU's sum (2 + 1 = 3).
  ChunkTiming first = make_chunk(0.0, 2.0, 0.0);
  first.dpu_kernel_seconds = {2.0, 1.0};
  ChunkTiming second = make_chunk(0.0, 2.0, 0.0);
  second.dpu_kernel_seconds = {1.0, 2.0};
  const std::vector<ChunkTiming> async_chunks = {first, second};
  const PipelineModel async_model = PipelineModel::from_chunks(async_chunks);
  EXPECT_DOUBLE_EQ(async_model.total_seconds, 3.0);

  const std::vector<ChunkTiming> barrier_chunks = {make_chunk(0.0, 2.0, 0.0),
                                                   make_chunk(0.0, 2.0, 0.0)};
  const PipelineModel barrier_model =
      PipelineModel::from_chunks(barrier_chunks);
  EXPECT_DOUBLE_EQ(barrier_model.total_seconds, 4.0);
}

// --- stage-granular PimSystem APIs --------------------------------------

TEST(PimSystemStages, RanksSpanned) {
  upmem::SystemConfig config = upmem::SystemConfig::paper();
  const upmem::PimSystem system(config, 1);
  EXPECT_EQ(system.ranks_spanned(0, 0), 0u);
  EXPECT_EQ(system.ranks_spanned(0, 1), 1u);
  EXPECT_EQ(system.ranks_spanned(0, 64), 1u);
  EXPECT_EQ(system.ranks_spanned(0, 65), 2u);
  EXPECT_EQ(system.ranks_spanned(63, 2), 2u);
  EXPECT_EQ(system.ranks_spanned(0, 2560), 40u);
}

TEST(PimSystemStages, LaunchGroupBoundsChecked) {
  upmem::PimSystem system(upmem::SystemConfig::tiny(4));
  const auto factory = [](usize) -> std::unique_ptr<upmem::DpuKernel> {
    return nullptr;
  };
  EXPECT_THROW(system.launch_group(3, 2, factory, 1), InvalidArgument);
  EXPECT_THROW(system.launch_group(5, 0, factory, 1), InvalidArgument);
}

// --- aligner integration -------------------------------------------------

TEST(PipelinedAligner, AutoPlannerBeatsSynchronousOnTransferBoundBatches) {
  const seq::ReadPairSet batch = seq::fig1_dataset(400, 0.02, 0x51CE);
  pim::PimOptions options;
  options.system = upmem::SystemConfig::tiny(4);
  options.nr_tasklets = 8;
  pim::PimBatchAligner sync_aligner(options);
  const auto sync_result =
      sync_aligner.align_batch(batch, align::AlignmentScope::kFull);

  options.pipeline = true;  // chunk count left to the planner
  pim::PimBatchAligner pipe_aligner(options);
  const auto pipe_result =
      pipe_aligner.align_batch(batch, align::AlignmentScope::kFull);
  ASSERT_GT(pipe_result.timings.chunks, 1u);
  EXPECT_LT(pipe_result.timings.total_seconds(),
            sync_result.timings.total_seconds());
  ASSERT_EQ(pipe_result.results.size(), sync_result.results.size());
  for (usize i = 0; i < sync_result.results.size(); ++i) {
    ASSERT_EQ(pipe_result.results[i], sync_result.results[i]) << i;
  }
}

TEST(PipelinedAligner, SynchronousTimingsCarryNoPipelineFields) {
  const seq::ReadPairSet batch = seq::fig1_dataset(64, 0.02, 0x51CF);
  pim::PimOptions options;
  options.system = upmem::SystemConfig::tiny(2);
  options.nr_tasklets = 4;
  pim::PimBatchAligner aligner(options);
  const auto result = aligner.align_batch(batch, align::AlignmentScope::kFull);
  EXPECT_EQ(result.timings.chunks, 1u);
  EXPECT_EQ(result.timings.pipelined_total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.timings.total_seconds(),
                   result.timings.additive_seconds());
}

TEST(PipelinedAligner, ForcedChunksWithoutPipeliningAreRejected) {
  // A forced chunk count would be ignored silently with pipelining off, so
  // both construction paths reject it.
  pim::PimOptions options;
  options.system = upmem::SystemConfig::tiny(2);
  options.nr_tasklets = 4;
  options.pipeline_chunks = 4;
  try {
    pim::PimBatchAligner aligner(options);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("--pipeline"), std::string::npos)
        << error.what();
  }
  align::BatchOptions batch_options;
  batch_options.pim_dpus = 2;
  batch_options.pim_pipeline_chunks = 4;
  EXPECT_THROW(pim::PimBatchAligner{batch_options}, InvalidArgument);
  options.pipeline = true;
  EXPECT_NO_THROW(pim::PimBatchAligner{options});
}

// --- BenchReport ---------------------------------------------------------

TEST(BenchReport, SerializesSchemaParamsAndMetrics) {
  BenchReport report("demo");
  report.set_param("pairs", static_cast<i64>(1000));
  report.set_param("mode", "pipelined");
  report.add_metric("total_seconds", 1.5, "s");
  report.add_metric("speedup", 2.0, "x");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"pimwfa-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"pairs\": \"1000\""), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(report.metric("speedup"), 2.0);
  EXPECT_THROW(report.metric("absent"), InvalidArgument);
}

TEST(BenchReport, LastWriteWinsAndEscapes) {
  BenchReport report("demo");
  report.add_metric("v", 1.0);
  report.add_metric("v", 2.0);
  EXPECT_DOUBLE_EQ(report.metric("v"), 2.0);
  EXPECT_EQ(BenchReport::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(BenchReport::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(BenchReport, NonFiniteMetricsSerializeAsNull) {
  BenchReport report("demo");
  report.add_metric("bad", std::numeric_limits<double>::infinity());
  EXPECT_NE(report.to_json().find("\"value\": null"), std::string::npos);
}

TEST(BenchReport, EmptyReportIsValid) {
  BenchReport report("empty");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"params\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {}"), std::string::npos);
  EXPECT_THROW(BenchReport(""), InvalidArgument);
}

}  // namespace
}  // namespace pimwfa
