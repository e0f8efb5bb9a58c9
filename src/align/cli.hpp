// Shared command-line vocabulary for everything that drives a batch
// backend: the backend/penalty/batch flags that every example used to
// re-implement privately now live here, parsed once into the unified
// BatchOptions. Built on common::Cli; examples and benches call
// parse_batch_flags() with their own defaults and get a ready-to-use
// registry key + BatchOptions + workload shape back.
#pragma once

#include <string>

#include "align/batch.hpp"
#include "common/cli.hpp"

namespace pimwfa::align {

struct BatchFlags {
  // --backend: registry key (align/registry.hpp).
  std::string backend = "cpu";
  BatchOptions options;

  // Workload shape (--pairs / --read-length / --error-rate / --seed).
  usize pairs = 1000;
  usize read_length = 100;
  double error_rate = 0.02;
  u64 seed = 42;
  bool score_only = false;

  AlignmentScope scope() const {
    return score_only ? AlignmentScope::kScoreOnly : AlignmentScope::kFull;
  }
};

// Registers the shared flags on `cli` (so they appear in --help) and
// parses them, with `defaults` filling every absent flag. Flags:
//   --backend --threads --mismatch --gap-open --gap-extend
//   --dpus --tasklets --packed --pipeline --chunks
//   --cpu-fraction --cpu-simd --simd-threshold --memory
//   --pairs --read-length --error-rate --seed --score-only
// Backends built from the result simulate every DPU and return every
// pair's result (a partial batch needs PimOptions::simulate_dpus, which
// only the paper-scale benches set).
// Throws InvalidArgument when --backend names an unregistered backend.
BatchFlags parse_batch_flags(Cli& cli, const BatchFlags& defaults = {});

}  // namespace pimwfa::align
