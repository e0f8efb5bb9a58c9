#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Shortest decimal that reads back as the same double.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

thread_local std::vector<u64> open_scopes;

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = timeval_seconds(ru.ru_utime);
  u.sys_s = timeval_seconds(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::keep_only(
    const std::vector<std::pair<const char*, const char*>>& names) {
  std::erase_if(metrics_, [&](const auto& entry) {
    return std::none_of(names.begin(), names.end(), [&](const auto& name) {
      return entry.first == name.first;
    });
  });
}

double Report::failed_frac() const {
  return attempted_ > 0 ? static_cast<double>(failed_) /
                              static_cast<double>(attempted_)
                        : 0.0;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << quoted(name) << ": {\"value\": " << number(entry.first)
       << ", \"unit\": " << quoted(entry.second) << "}";
  }
  os << "}}";
  return os.str();
}

u64 Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

u64 Tracer::current_parent() {
  return open_scopes.empty() ? 0 : open_scopes.back();
}

u64 Tracer::thread_id() {
  static std::atomic<u64> next{1};
  thread_local const u64 id = next.fetch_add(1);
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer(u64 tid) const {
  std::vector<Span> all = spans();
  std::erase_if(all, [tid](const Span& s) { return s.tid != tid; });
  std::map<u64, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double child_s = 0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        child_s += seconds_between(from, hi);
        reach = hi;
      }
    }
    out[s.layer] += seconds_between(s.start, s.end) - child_s;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : all) origin = std::min(origin, s.start);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (usize i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double ts_us = seconds_between(origin, s.start) * 1e6;
    const double dur_us = seconds_between(s.start, s.end) * 1e6;
    os << "{\"name\": " << quoted(s.name) << ", \"cat\": " << quoted(s.layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << number(ts_us) << ", \"dur\": " << number(dur_us)
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"ref\": " << s.ref;
    for (const auto& [key, value] : s.args) {
      os << ", " << quoted(key) << ": " << number(value);
    }
    os << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

SpanScope::SpanScope(Tracer& tracer, std::string name, std::string layer,
                     u64 ref)
    : tracer_(tracer), active_(tracer.enabled()) {
  if (!active_) return;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.id = tracer_.next_id();
  span_.parent = Tracer::current_parent();
  span_.ref = ref;
  span_.tid = Tracer::thread_id();
  open_scopes.push_back(span_.id);
  span_.start = Clock::now();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end = Clock::now();
  open_scopes.pop_back();
  tracer_.record(std::move(span_));
}

void SpanScope::arg(const std::string& key, double value) {
  if (active_) span_.args.emplace_back(key, value);
}

}  // namespace perfbench
