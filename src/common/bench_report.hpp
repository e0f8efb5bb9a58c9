// Machine-readable benchmark reports.
//
// Every bench/* target accepts --json=<path> and serializes one
// BenchReport there; CI consumes the files (BENCH_<name>.json artifacts)
// and gates on metric regressions against checked-in baselines (see
// tools/check_perf.py). Hand-rolled serializer - no external JSON
// dependency.
//
// Schema ("pimwfa-bench-v1"):
//
//   {
//     "schema": "pimwfa-bench-v1",
//     "bench": "<name>",
//     "params": { "<name>": "<string>", ... },
//     "metrics": { "<name>": {"value": <number|null>, "unit": "<unit>"},
//                  ... }
//   }
//
// Params capture the configuration knobs that shaped the run (so a
// baseline mismatch is diagnosable); metrics are the measured or modeled
// numbers. Non-finite metric values serialize as null - JSON has no
// NaN/Inf - and insertion order is preserved in the output.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace pimwfa {

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  // Configuration knobs. Last set wins for a repeated name.
  void set_param(const std::string& name, const std::string& value);
  void set_param(const std::string& name, i64 value);
  void set_param(const std::string& name, double value);

  // Measured/modeled numbers. Last add wins for a repeated name.
  void add_metric(const std::string& name, double value,
                  const std::string& unit = "");

  const std::string& name() const noexcept { return name_; }
  // Looks a metric up; throws InvalidArgument when absent (test helper).
  double metric(const std::string& name) const;

  std::string to_json() const;
  void write(const std::string& path) const;

  // JSON string escaping (exposed for tests).
  static std::string escape(const std::string& raw);

 private:
  struct Param {
    std::string name;
    std::string value;
  };
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  std::vector<Param> params_;
  std::vector<Metric> metrics_;
};

// Peak resident memory of this process so far, in MiB (getrusage
// ru_maxrss): a measured number that does not move with runner speed, so
// CI can gate it with a ceiling.
double peak_rss_mb();

}  // namespace pimwfa
