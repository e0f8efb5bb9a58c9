#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "upmem/system.hpp"

namespace pimwfa::upmem {
namespace {

TEST(SystemConfig, PaperSystemShape) {
  const SystemConfig config = SystemConfig::paper();
  EXPECT_EQ(config.nr_dpus(), 2560u);
  EXPECT_EQ(config.nr_ranks(), 40u);
  EXPECT_EQ(config.max_tasklets, 24u);
  EXPECT_DOUBLE_EQ(config.clock_hz, 425e6);
  EXPECT_EQ(config.mram_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(config.wram_bytes, 64ull * 1024);
}

TEST(SystemConfig, TinyShape) {
  const SystemConfig config = SystemConfig::tiny(4);
  EXPECT_EQ(config.nr_dpus(), 4u);
  EXPECT_EQ(config.nr_ranks(), 1u);
}

TEST(SystemConfig, ValidateRejectsBadValues) {
  SystemConfig config = SystemConfig::tiny(1);
  config.max_tasklets = 25;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = SystemConfig::tiny(1);
  config.dma_align = 7;  // not a power of two
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = SystemConfig::tiny(1);
  config.wram_reserved_bytes = config.wram_bytes;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(Mram, WriteReadRoundTrip) {
  Mram mram(1 << 20);
  const u8 data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  mram.write(4096, data, sizeof(data));
  u8 out[16] = {};
  mram.read(4096, out, sizeof(out));
  EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
}

TEST(Mram, UntouchedReadsZero) {
  Mram mram(1 << 20);
  u8 out[8] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  mram.read(512 * 1024, out, sizeof(out));
  for (u8 b : out) EXPECT_EQ(b, 0);
}

TEST(Mram, LazyBackingGrowsWithWrites) {
  Mram mram(64ull << 20);
  EXPECT_EQ(mram.touched(), 0u);
  const u64 value = 42;
  mram.write_pod(128, value);
  EXPECT_GT(mram.touched(), 0u);
  EXPECT_LT(mram.touched(), 1ull << 20);  // far below capacity
}

TEST(Mram, FarWriteResidesInOnePage) {
  // A write deep into the bank must not back everything below it.
  Mram mram(64ull << 20);
  mram.write_pod<u64>(60ull << 20, 7);
  EXPECT_EQ(mram.touched(), Mram::kPageBytes);
  mram.write_pod<u64>((60ull << 20) + 8, 8);  // same page
  EXPECT_EQ(mram.touched(), Mram::kPageBytes);
  EXPECT_EQ(mram.read_pod<u64>(60ull << 20), 7u);
  u64 below = 1;
  mram.read(32ull << 20, &below, sizeof(below));  // absent: zeros, no page
  EXPECT_EQ(below, 0u);
  EXPECT_EQ(mram.touched(), Mram::kPageBytes);
}

TEST(Mram, AccessStraddlingPagesRoundTrips) {
  Mram mram(1 << 20);
  std::vector<u8> data(3 * Mram::kPageBytes);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  // Starts 5 bytes before the first page boundary and spans two more.
  const u64 addr = Mram::kPageBytes - 5;
  mram.write(addr, data.data(), data.size());
  EXPECT_EQ(mram.touched(), 4 * Mram::kPageBytes);
  std::vector<u8> out(data.size());
  mram.read(addr, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(Mram, ReadAcrossResidentAndAbsentPages) {
  Mram mram(1 << 20);
  const std::vector<u8> data(16, 0xab);
  const u64 addr = Mram::kPageBytes - data.size();  // ends at the boundary
  mram.write(addr, data.data(), data.size());
  std::vector<u8> out(48, 0xff);
  mram.read(addr, out.data(), out.size());
  for (usize i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i < data.size() ? 0xab : 0) << "byte " << i;
  }
  EXPECT_EQ(mram.touched(), Mram::kPageBytes);  // the read allocated nothing
}

TEST(Mram, BoundsFault) {
  // Capacities below, off and on a page multiple: the last byte is
  // addressable, one past it faults.
  for (const u64 capacity :
       {u64{1024}, Mram::kPageBytes + 24, u64{64} << 20}) {
    Mram mram(capacity);
    u8 bytes[8] = {};
    EXPECT_THROW(mram.write(capacity, bytes, 1), HardwareFault) << capacity;
    EXPECT_THROW(mram.read(capacity - 4, bytes, 8), HardwareFault)
        << capacity;
    EXPECT_NO_THROW(mram.read(capacity - 8, bytes, 8)) << capacity;
    EXPECT_NO_THROW(mram.write(capacity - 1, bytes, 1)) << capacity;
    EXPECT_NO_THROW(mram.write(capacity, bytes, 0)) << capacity;
    EXPECT_THROW(mram.write(capacity + 1, bytes, 0), HardwareFault)
        << capacity;
  }
}

TEST(Mram, PodHelpers) {
  Mram mram(4096);
  mram.write_pod<u32>(16, 0xdeadbeef);
  EXPECT_EQ(mram.read_pod<u32>(16), 0xdeadbeefu);
}

TEST(Wram, LoadStore) {
  Wram wram(65536);
  wram.store<u32>(128, 77);
  EXPECT_EQ(wram.load<u32>(128), 77u);
}

TEST(Wram, BoundsFault) {
  Wram wram(1024);
  EXPECT_THROW(wram.at(1020, 8), HardwareFault);
  EXPECT_NO_THROW(wram.at(1016, 8));
}

class DmaTest : public ::testing::Test {
 protected:
  SystemConfig config_ = SystemConfig::tiny(1);
  Mram mram_{1 << 20};
  Wram wram_{65536};
  DmaEngine dma_{config_};
};

TEST_F(DmaTest, TransfersData) {
  const u64 value = 0x0123456789abcdefull;
  mram_.write_pod(64, value);
  const u64 cycles = dma_.mram_to_wram(mram_, 64, wram_, 256, 8);
  EXPECT_EQ(wram_.load<u64>(256), value);
  EXPECT_EQ(cycles, config_.dma_setup_cycles + 4);  // 8 bytes * 0.5
}

TEST_F(DmaTest, RoundTripWramToMram) {
  wram_.store<u64>(0, 99);
  dma_.wram_to_mram(wram_, 0, mram_, 1024, 8);
  EXPECT_EQ(mram_.read_pod<u64>(1024), 99u);
}

TEST_F(DmaTest, RejectsMisalignedMramAddress) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 4, wram_, 0, 8), HardwareFault);
}

TEST_F(DmaTest, RejectsMisalignedWramOffset) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 4, 8), HardwareFault);
}

TEST_F(DmaTest, RejectsBadSizes) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 4), HardwareFault);
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 12), HardwareFault);
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 4096), HardwareFault);
  EXPECT_NO_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 2048));
}

TEST_F(DmaTest, WramToMramRejectsMisalignedMramAddress) {
  EXPECT_THROW(dma_.wram_to_mram(wram_, 0, mram_, 4, 8), HardwareFault);
}

TEST_F(DmaTest, WramToMramRejectsMisalignedWramOffset) {
  EXPECT_THROW(dma_.wram_to_mram(wram_, 4, mram_, 0, 8), HardwareFault);
}

TEST_F(DmaTest, WramToMramRejectsBadSizes) {
  EXPECT_THROW(dma_.wram_to_mram(wram_, 0, mram_, 0, 4), HardwareFault);
  EXPECT_THROW(dma_.wram_to_mram(wram_, 0, mram_, 0, 12), HardwareFault);
  EXPECT_THROW(dma_.wram_to_mram(wram_, 0, mram_, 0, 4096), HardwareFault);
  EXPECT_NO_THROW(dma_.wram_to_mram(wram_, 0, mram_, 0, 2048));
}

TEST_F(DmaTest, CyclesGrowWithSize) {
  EXPECT_LT(dma_.cycles(8), dma_.cycles(2048));
}

TEST(CostModel, PipelineSaturation) {
  const SystemConfig config = SystemConfig::tiny(1);
  const CostModel model(config);
  // 11+ equally busy tasklets: throughput-bound = sum of work.
  std::vector<TaskletStats> tasklets(12);
  for (auto& t : tasklets) t.instructions = 1000;
  EXPECT_EQ(model.dpu_cycles(tasklets), 12000u);
  // A single tasklet: latency-bound = 11x its work.
  tasklets.assign(1, TaskletStats{});
  tasklets[0].instructions = 1000;
  EXPECT_EQ(model.dpu_cycles(tasklets), 11000u);
}

TEST(CostModel, MoreTaskletsNeverSlower) {
  const SystemConfig config = SystemConfig::tiny(1);
  const CostModel model(config);
  const u64 total_work = 240000;
  u64 prev = ~u64{0};
  for (usize t = 1; t <= 24; ++t) {
    std::vector<TaskletStats> tasklets(t);
    for (usize i = 0; i < t; ++i) {
      tasklets[i].instructions = total_work / t + (i < total_work % t ? 1 : 0);
    }
    const u64 cycles = model.dpu_cycles(tasklets);
    EXPECT_LE(cycles, prev) << "tasklets=" << t;
    prev = cycles;
  }
  // And at 11+ tasklets the pipeline is saturated: no further gain.
  std::vector<TaskletStats> eleven(11);
  for (auto& s : eleven) s.instructions = total_work / 11;
  std::vector<TaskletStats> twenty_four(24);
  for (auto& s : twenty_four) s.instructions = total_work / 24;
  EXPECT_NEAR(static_cast<double>(model.dpu_cycles(eleven)),
              static_cast<double>(model.dpu_cycles(twenty_four)),
              static_cast<double>(total_work) * 0.01);
}

TEST(CostModel, DmaCyclesCountTowardTaskletBusy) {
  TaskletStats t;
  t.instructions = 100;
  t.dma_cycles = 50;
  EXPECT_EQ(t.busy_cycles(), 150u);
}

TEST(CostModel, TransferBandwidthScalesThenCaps) {
  const SystemConfig config = SystemConfig::paper();
  const CostModel model(config);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(1), config.host_bw_per_rank);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(2), 2 * config.host_bw_per_rank);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(40), config.host_bw_cap);
  // Time is monotone in bytes and antitone in ranks.
  EXPECT_GT(model.transfer_seconds(1 << 30, 1),
            model.transfer_seconds(1 << 30, 8));
  EXPECT_GT(model.transfer_seconds(1 << 30, 8),
            model.transfer_seconds(1 << 20, 8));
}

// A trivial kernel for DPU/launch plumbing tests: each tasklet copies an
// 8-byte slot from MRAM to MRAM via WRAM, incrementing it.
class IncrementKernel final : public DpuKernel {
 public:
  void run(TaskletCtx& ctx) override {
    const u64 buf = ctx.wram_alloc(8);
    const u64 addr = 64 + 8 * static_cast<u64>(ctx.me());
    ctx.mram_read(addr, buf, 8);
    u64 value;
    std::memcpy(&value, ctx.wram_ptr(buf, 8), 8);
    ++value;
    std::memcpy(ctx.wram_ptr(buf, 8), &value, 8);
    ctx.account(10);
    ctx.mram_write(buf, addr, 8);
  }
};

TEST(Dpu, LaunchRunsAllTasklets) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  for (usize t = 0; t < 8; ++t) {
    dpu.mram().write_pod<u64>(64 + 8 * t, 100 * t);
  }
  IncrementKernel kernel;
  const DpuRunStats stats = dpu.launch(kernel, 8);
  for (usize t = 0; t < 8; ++t) {
    EXPECT_EQ(dpu.mram().read_pod<u64>(64 + 8 * t), 100 * t + 1);
  }
  EXPECT_EQ(stats.tasklets.size(), 8u);
  EXPECT_GT(stats.cycles, 0u);
  const TaskletStats combined = stats.combined();
  EXPECT_EQ(combined.instructions, 80u);
  EXPECT_EQ(combined.dma_calls, 16u);
  EXPECT_EQ(combined.dma_bytes, 128u);
  // Each 8-byte transfer costs setup (88) + 8 * 0.5 cycles.
  EXPECT_EQ(combined.dma_cycles, 16u * (88u + 4u));
}

// Runs `body` as the kernel of a one-tasklet launch and returns the
// HardwareFault message it raises ("" and a test failure if none).
std::string launch_fault(const std::function<void(TaskletCtx&)>& body) {
  class FnKernel final : public DpuKernel {
   public:
    explicit FnKernel(const std::function<void(TaskletCtx&)>& body)
        : body_(body) {}
    void run(TaskletCtx& ctx) override { body_(ctx); }

   private:
    const std::function<void(TaskletCtx&)>& body_;
  };
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  FnKernel kernel(body);
  try {
    dpu.launch(kernel, 1);
  } catch (const HardwareFault& fault) {
    return fault.what();
  }
  ADD_FAILURE() << "launch raised no HardwareFault";
  return "";
}

TEST(Dpu, KernelMisalignedMramReadFaults) {
  const auto body = [](TaskletCtx& ctx) {
    ctx.mram_read(68, ctx.wram_alloc(8), 8);
  };
  EXPECT_EQ(launch_fault(body),
            "hardware fault: DMA MRAM address 68 not 8-byte aligned "
            "(is_aligned_pow2(mram_addr, config_->dma_align))");
}

TEST(Dpu, KernelOversizedMramWriteFaults) {
  const auto body = [](TaskletCtx& ctx) {
    ctx.mram_write(ctx.wram_alloc(4096), 0, 4096);
  };
  EXPECT_EQ(launch_fault(body),
            "hardware fault: DMA size 4096 outside [8, 2048] "
            "(bytes >= config_->dma_align && bytes <= "
            "config_->dma_max_bytes)");
}

TEST(Dpu, KernelOutOfRangeWramPointerFaults) {
  const auto body = [](TaskletCtx& ctx) { ctx.wram_ptr(65532, 8); };
  EXPECT_EQ(launch_fault(body),
            "hardware fault: WRAM access [65532, 65540) exceeds capacity "
            "65536 (offset <= store_.size() && bytes <= store_.size() - "
            "offset)");
}

TEST(Dpu, WramHeapExhaustionFaults) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  class GreedyKernel final : public DpuKernel {
   public:
    void run(TaskletCtx& ctx) override {
      ctx.wram_alloc(32 * 1024);
      ctx.wram_alloc(32 * 1024);  // second 32KB cannot fit with the reserve
    }
  };
  GreedyKernel kernel;
  EXPECT_THROW(dpu.launch(kernel, 1), HardwareFault);
}

TEST(Dpu, WramHeapResetsBetweenLaunches) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  class HalfKernel final : public DpuKernel {
   public:
    void run(TaskletCtx& ctx) override { ctx.wram_alloc(40 * 1024); }
  };
  HalfKernel kernel;
  EXPECT_NO_THROW(dpu.launch(kernel, 1));
  EXPECT_NO_THROW(dpu.launch(kernel, 1));  // would fault without the reset
}

TEST(Dpu, RejectsBadTaskletCount) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  IncrementKernel kernel;
  EXPECT_THROW(dpu.launch(kernel, 0), InvalidArgument);
  EXPECT_THROW(dpu.launch(kernel, 25), InvalidArgument);
}

TEST(PimSystem, ScatterGatherRoundTrip) {
  PimSystem system(SystemConfig::tiny(4));
  const std::vector<u8> data = {1, 2, 3, 4, 5, 6, 7, 8};
  for (usize d = 0; d < 4; ++d) system.copy_to_mram(d, 128, data);
  std::vector<u8> out(8);
  system.copy_from_mram(2, 128, out);
  EXPECT_EQ(out, data);
}

TEST(PimSystem, SubsetSimulation) {
  PimSystem system(SystemConfig::paper(), 8);
  EXPECT_EQ(system.nr_dpus(), 8u);
  EXPECT_EQ(system.logical_dpus(), 2560u);
}

TEST(PimSystem, LaunchGroupAggregates) {
  PimSystem system(SystemConfig::tiny(4));
  for (usize d = 0; d < 4; ++d) {
    for (usize t = 0; t < 4; ++t) {
      system.dpu(d).mram().write_pod<u64>(64 + 8 * t, 0);
    }
  }
  const LaunchStats stats = system.launch_group(
      0, 4, [](usize) { return std::make_unique<IncrementKernel>(); }, 4);
  EXPECT_EQ(stats.dpus, 4u);
  EXPECT_GT(stats.max_cycles, 0u);
  EXPECT_GE(stats.total_cycles, stats.max_cycles * 4);  // uniform work
  EXPECT_EQ(stats.combined.dma_calls, 4u * 4u * 2u);
}

TEST(PimSystem, LaunchGroupParallelHostMatchesSerial) {
  ThreadPool pool(3);
  PimSystem serial(SystemConfig::tiny(6));
  PimSystem parallel(SystemConfig::tiny(6));
  const auto factory = [](usize) { return std::make_unique<IncrementKernel>(); };
  const LaunchStats a = serial.launch_group(0, 6, factory, 4);
  const LaunchStats b = parallel.launch_group(0, 6, factory, 4, &pool);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

}  // namespace
}  // namespace pimwfa::upmem
