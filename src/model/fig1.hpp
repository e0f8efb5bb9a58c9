// Fig. 1 of the paper, regenerated: time to align `pairs` pairs of 100bp
// reads at edit-distance thresholds E in {2%, 4%}, for
//   - the CPU WFA baseline at 1/16/32/48/56 threads (measured single-thread
//     time on this machine projected onto the paper's dual Xeon Gold 5120
//     through the roofline ScalingModel, whose memory floor and
//     saturation thread count are the paper's Observation 1), and
//   - the PIM implementation on the simulated 2560-DPU UPMEM system:
//     "Total" (scatter + kernel + gather) and "Kernel".
//
// Both sides align the *same* pairs; the experiment cross-checks that the
// PIM results equal the CPU results exactly (the paper's "no algorithmic
// change" methodology) before reporting any timing.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cpu/scaling_model.hpp"
#include "pim/host.hpp"

namespace pimwfa::model {

struct Fig1Options {
  usize pairs = 5'000'000;            // the paper's workload size
  std::vector<double> error_rates = {0.02, 0.04};
  std::vector<usize> cpu_threads = {1, 16, 32, 48, 56};
  usize read_length = 100;
  align::Penalties penalties = align::Penalties::defaults();
  bool full_alignment = true;
  u64 seed = 0x51A6;

  // Simulation scale: how many of the 2560 DPUs to simulate functionally.
  // The measured sample (also used for the CPU single-thread measurement)
  // is exactly those DPUs' share of the batch.
  usize simulate_dpus = 24;
  usize nr_tasklets = 24;
  upmem::SystemConfig system = upmem::SystemConfig::paper();
  cpu::CpuSystemModel cpu_system{};
  // Host-side repeats of the CPU measurement (median taken).
  usize cpu_repeats = 1;
};

struct Fig1Row {
  double error_rate = 0;     // 0.02 / 0.04
  std::string config;        // "CPU 16t", "PIM Total", "PIM Kernel"
  double seconds = 0;        // for the full `pairs` batch
  double throughput = 0;     // pairs per second
};

struct Fig1GroupDetail {
  double error_rate = 0;
  usize sample_pairs = 0;
  double cpu_t1_sample_seconds = 0;   // measured on this machine
  double cpu_t1_seconds = 0;          // scaled to the full batch
  double cpu_traffic_bytes = 0;
  double memory_floor_seconds = 0;    // roofline DRAM-bandwidth floor
  usize saturation_threads = 0;       // threads where the floor binds
  double cpu_56t_seconds = 0;
  pim::PimTimings pim;
  double speedup_total = 0;           // CPU 56t / PIM Total
  double speedup_kernel = 0;          // CPU 56t / PIM Kernel
  u64 verified_pairs = 0;             // PIM == CPU cross-checked
};

struct Fig1Result {
  Fig1Options options;
  std::vector<Fig1Row> rows;
  std::vector<Fig1GroupDetail> details;

  // Paper-style console table + the two headline speedups.
  void print(std::ostream& os) const;
  // One row per (E, config) with seconds and throughput.
  void write_csv(const std::string& path) const;
};

// Run the whole experiment. `pool`, if provided, parallelizes host-side
// simulation of independent DPUs.
Fig1Result run_fig1(const Fig1Options& options, ThreadPool* pool = nullptr);

}  // namespace pimwfa::model
