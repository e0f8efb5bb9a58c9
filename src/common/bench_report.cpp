#include "common/bench_report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/error.hpp"

namespace pimwfa {
namespace {

// Shortest round-trippable decimal form of a double; null for non-finite
// values (JSON has neither NaN nor Inf).
std::string number_or_null(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  return buffer;
}

}  // namespace

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {
  PIMWFA_ARG_CHECK(!name_.empty(), "bench report needs a name");
}

std::string BenchReport::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void BenchReport::set_param(const std::string& name,
                            const std::string& value) {
  for (Param& param : params_) {
    if (param.name == name) {
      param.value = value;
      return;
    }
  }
  params_.push_back({name, value});
}

void BenchReport::set_param(const std::string& name, i64 value) {
  set_param(name, std::to_string(value));
}

void BenchReport::set_param(const std::string& name, double value) {
  set_param(name, number_or_null(value));
}

void BenchReport::add_metric(const std::string& name, double value,
                             const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double BenchReport::metric(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  throw InvalidArgument("bench report '" + name_ + "' has no metric '" +
                        name + "'");
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"pimwfa-bench-v1\",\n  \"bench\": \""
     << escape(name_) << "\",\n  \"params\": {";
  for (usize i = 0; i < params_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << escape(params_[i].name)
       << "\": \"" << escape(params_[i].value) << "\"";
  }
  os << (params_.empty() ? "" : "\n  ") << "},\n  \"metrics\": {";
  for (usize i = 0; i < metrics_.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << escape(metrics_[i].name)
       << "\": {\"value\": " << number_or_null(metrics_[i].value)
       << ", \"unit\": \"" << escape(metrics_[i].unit) << "\"}";
  }
  os << (metrics_.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void BenchReport::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open '" + path + "' for writing");
  os << to_json();
  if (!os) throw IoError("failed writing bench report to '" + path + "'");
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw IoError("getrusage(RUSAGE_SELF) failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace pimwfa
