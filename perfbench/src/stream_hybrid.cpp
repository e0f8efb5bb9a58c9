// stream-hybrid: an open loop through the whole streaming stack. One
// generator thread reads 100 bp pairs from a ".seq" file (written before
// set-up) through SeqPairChunkReader and sends small score-only requests
// to one AlignService on a fixed schedule, below saturation. The backend
// is `hybrid` over a small fully simulated PIM system, with the
// deterministic cpu_per_pair_seconds override and cpu_simd on. An op is
// one request; it fails when its future resolves with an error or its
// results differ from the `cpu` backend on its pairs.
//
// Latency is timed from the request's due time (not its send time), so a
// stall also charges the requests queued behind it; how late the
// generator sent is reported separately (gen.late_p99_ms).
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "align/hybrid.hpp"
#include "align/registry.hpp"
#include "align/service.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;

// Workload definition: fixed, so every commit sees the same offered load.
// 2500 requests/s is about a quarter of the saturation throughput
// measured on a 4-core x86 VM (~10,500 requests/s), leaving headroom for
// host stalls; 256-pair batches are the cheapest per pair the simulator
// forms (512-pair batches cost ~5x more host CPU per request).
constexpr usize kRequestPairs = 32;
constexpr double kRequestsPerSecond = 2500;
constexpr usize kMaxBatchPairs = 256;
constexpr auto kMaxBatchDelay = std::chrono::milliseconds(10);
constexpr usize kFilePairs = 16384;  // a multiple of kRequestPairs
constexpr usize kChunkPairs = 64;    // SeqPairChunkReader::next budget
constexpr usize kPimDpus = 4;
constexpr double kCpuPerPairSeconds = 8e-6;
// Latency and CPU are taken per window of due times and reported as
// medians over windows: each window still puts >= 10 samples beyond its
// p99, and a host stall moves a few windows, not the result.
constexpr auto kWindow = std::chrono::milliseconds(500);
constexpr usize kMinWindowRequests = 1000;
constexpr usize kSetupRepeats = 3;
// One full batch: warms the engine and the full-batch calibration.
constexpr usize kWarmupRequests = kMaxBatchPairs / kRequestPairs;

// Pass-through backend that records a span around every batch the engine
// hands to the hybrid backend.
class TracedBackend final : public align::BatchAligner {
 public:
  TracedBackend(std::unique_ptr<align::BatchAligner> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  align::BatchResult run(seq::ReadPairSpan batch, align::AlignmentScope scope,
                         ThreadPool* pool) override {
    SpanScope span(tracer_, "hybrid.run", "hybrid");
    align::BatchResult result = inner_->run(batch, scope, pool);
    const align::BatchTimings& t = result.timings;
    span.arg("pairs", static_cast<double>(t.pairs));
    span.arg("cpu_fraction", t.cpu_fraction);
    span.arg("cpu_wall_ms", t.cpu_wall_seconds * 1e3);
    span.arg("pim_wall_ms", (t.wall_seconds - t.cpu_wall_seconds) * 1e3);
    return result;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<align::BatchAligner> inner_;
  Tracer& tracer_;
};

// One sent request, handed from the generator to the collector.
struct Sent {
  align::RequestHandle handle;
  Clock::time_point due{};
  usize first_pair = 0;  // index of its first pair in the file
  u64 id = 0;
  usize window = 0;
};

// What the collector learned about one request.
struct Outcome {
  bool ok = false;
  usize window = 0;
  double latency_ms = 0;
};

// Reads the file's pairs as an endless stream, request by request.
class PairSource {
 public:
  PairSource(std::string path, Tracer& tracer)
      : path_(std::move(path)), tracer_(tracer) {
    reopen();
  }

  // The next request's pairs; `first_pair` receives the file index of
  // the first one.
  std::vector<seq::ReadPair> take(usize count, usize* first_pair) {
    std::vector<seq::ReadPair> out;
    *first_pair = position_;
    while (out.size() < count) {
      if (cursor_ == chunk_.size()) refill();
      out.push_back(std::move(chunk_[cursor_++]));
      position_ = (position_ + 1) % kFilePairs;
    }
    return out;
  }

  std::vector<double> read_ms;  // per next() call

 private:
  void reopen() {
    file_ = std::make_unique<std::ifstream>(path_);
    if (!*file_) throw std::runtime_error("cannot open " + path_);
    reader_ = std::make_unique<seq::SeqPairChunkReader>(*file_);
  }
  void refill() {
    chunk_.clear();
    cursor_ = 0;
    for (int attempt = 0; chunk_.empty(); ++attempt) {
      if (attempt > 1) throw std::runtime_error("empty input " + path_);
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span(tracer_, "seq.next", "seq");
        reader_->next(chunk_, kChunkPairs);
      }
      read_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (chunk_.empty()) reopen();
    }
  }

  std::string path_;
  Tracer& tracer_;
  std::unique_ptr<std::ifstream> file_;
  std::unique_ptr<seq::SeqPairChunkReader> reader_;
  std::vector<seq::ReadPair> chunk_;
  usize cursor_ = 0;
  usize position_ = 0;
};

}  // namespace

void run_stream_hybrid(const Args& args, Tracer& tracer, Report& report) {
  const auto scope = align::AlignmentScope::kScoreOnly;

  // --- inputs and reference answers (untimed) ----------------------------
  const std::string path =
      args.scratch + "/stream-hybrid-" + std::to_string(args.seed) + ".seq";
  seq::GeneratorConfig gen;
  gen.pairs = kFilePairs;
  gen.read_length = 100;
  gen.error_rate = 0.02;
  gen.seed = args.seed;
  const seq::ReadPairSet file_pairs = seq::generate_dataset(gen);
  seq::write_seq_pairs_file(path, file_pairs);
  align::BatchOptions cpu_options;
  cpu_options.cpu_threads = pool_threads();
  const std::vector<align::AlignmentResult> expected =
      align::backend_registry()
          .create("cpu", cpu_options)
          ->run(file_pairs, scope)
          .results;

  // --- set-up: service + engine + backend construction, warm-up ----------
  align::BatchOptions batch;
  batch.pim_dpus = kPimDpus;
  batch.cpu_per_pair_seconds = kCpuPerPairSeconds;
  batch.cpu_simd = true;
  align::ServiceOptions service_options;
  service_options.scope = scope;
  service_options.engine.max_in_flight = 2;
  service_options.engine.workers = pool_threads();
  service_options.max_batch_pairs = kMaxBatchPairs;
  service_options.max_batch_delay = kMaxBatchDelay;
  service_options.max_queued_pairs = 4096;

  std::unique_ptr<align::AlignService> service;
  const align::HybridBatchAligner* hybrid = nullptr;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&] {
    service.reset();
    std::unique_ptr<align::BatchAligner> backend =
        align::backend_registry().create("hybrid", batch);
    hybrid = dynamic_cast<const align::HybridBatchAligner*>(backend.get());
    service = std::make_unique<align::AlignService>(
        std::make_unique<TracedBackend>(std::move(backend), tracer),
        service_options);
    // Calibrate every batch size the size watermark can form (whole
    // requests up to max_batch_pairs), as a service owner would before
    // taking traffic; later misses show in hybrid.calibrations.
    ThreadPool pool(pool_threads());
    for (usize pairs = kRequestPairs; pairs <= kMaxBatchPairs;
         pairs += kRequestPairs) {
      hybrid->plan(seq::ReadPairSpan(file_pairs).subspan(0, pairs), scope,
                   &pool);
    }
    PairSource warm(path, tracer);
    std::vector<align::RequestHandle> handles;
    for (usize i = 0; i < kWarmupRequests; ++i) {
      usize first = 0;
      handles.push_back(
          service->submit_wait(warm.take(kRequestPairs, &first)));
    }
    for (auto& handle : handles) handle.get();
  });
  if (hybrid == nullptr) throw std::runtime_error("hybrid backend expected");
  const usize calibrations_before = hybrid->calibrations_performed();
  // A traced run alternates traced and untraced windows, so tracing
  // overhead can be compared within one run.
  const auto traced = [&](usize window) {
    return args.trace && window % 2 == 0;
  };

  PairSource source(path, tracer);

  // --- collector: resolves requests in send order ------------------------
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Sent> queue;
  bool done = false;
  // Written by the collector only, read after it joined.
  std::vector<Outcome> outcomes;
  Clock::time_point last_resolved{};
  std::thread collector([&] {
    for (;;) {
      Sent sent;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        sent = std::move(queue.front());
        queue.pop_front();
      }
      Outcome outcome;
      outcome.window = sent.window;
      std::optional<std::vector<align::AlignmentResult>> results;
      try {
        results = sent.handle.get();
      } catch (const std::exception&) {
        // resolved with an error: a failed op
      }
      const Clock::time_point resolved = Clock::now();
      last_resolved = resolved;
      outcome.latency_ms = seconds_between(sent.due, resolved) * 1e3;
      if (traced(sent.window)) {
        Span span;
        span.name = "service.request";
        span.layer = "request";
        span.start = sent.due;
        span.end = resolved;
        span.id = tracer.next_id();
        span.ref = sent.id;
        span.tid = Tracer::thread_id();
        tracer.record(std::move(span));
      }
      if (results && results->size() == kRequestPairs) {
        outcome.ok = true;
        for (usize p = 0; p < kRequestPairs; ++p) {
          if (!((*results)[p] == expected[sent.first_pair + p])) {
            outcome.ok = false;
          }
        }
      }
      outcomes.push_back(outcome);
    }
  });

  // --- generator: the open loop ------------------------------------------
  std::vector<double> late_ms;
  std::vector<double> admission_ms;
  std::vector<double> in_flight;
  std::vector<Usage> window_usage;  // at the start of each window, then end
  const u64 copied_before = seq::bases_copied_counter().load();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRequestsPerSecond));
  const Clock::time_point start = Clock::now();
  const auto run_for = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds));
  // Stops the collector once every sent request is queued, on the error
  // path too.
  const auto stop_collector = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  std::optional<SpanScope> window_span;
  try {
    for (u64 i = 0;; ++i) {
      const Clock::time_point due = start + period * static_cast<i64>(i);
      if (due - start >= run_for) break;
      const usize w = static_cast<usize>((due - start) / kWindow);
      if (w == window_usage.size()) {
        window_span.reset();
        tracer.set_enabled(traced(w));
        if (traced(w)) window_span.emplace(tracer, "bench.pass", "bench", w);
        window_usage.push_back(usage_now());
      }
      usize first_pair = 0;
      std::vector<seq::ReadPair> pairs =
          source.take(kRequestPairs, &first_pair);
      std::this_thread::sleep_until(due);
      const Clock::time_point send = Clock::now();
      late_ms.push_back(seconds_between(due, send) * 1e3);
      in_flight.push_back(static_cast<double>(service->engine().in_flight()));
      Sent sent;
      {
        SpanScope span(tracer, "service.submit_wait", "service", i);
        sent.handle = service->submit_wait(std::move(pairs));
      }
      admission_ms.push_back(seconds_between(send, Clock::now()) * 1e3);
      sent.due = due;
      sent.first_pair = first_pair;
      sent.id = i;
      sent.window = w;
      {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(sent));
      }
      cv.notify_one();
    }
  } catch (...) {
    window_span.reset();
    stop_collector();
    throw;
  }
  window_span.reset();
  stop_collector();
  tracer.set_enabled(false);
  window_usage.push_back(usage_now());
  const Usage& usage_before = window_usage.front();
  const Usage& usage_after = window_usage.back();
  const u64 copied = seq::bases_copied_counter().load() - copied_before;
  const align::ServiceStats service_stats = service->stats();
  const usize calibrations = hybrid->calibrations_performed() -
                             calibrations_before;
  service.reset();
  std::remove(path.c_str());

  const usize windows = window_usage.size() - 1;
  std::vector<std::vector<double>> latency(windows);
  usize failed = 0;
  for (const Outcome& o : outcomes) {
    latency[o.window].push_back(o.latency_ms);
    if (!o.ok) ++failed;
  }
  report.ops(outcomes.size(), failed);
  const double requests = static_cast<double>(outcomes.size());

  // Window medians, [0] untraced and [1] traced windows. Windows short of
  // kMinWindowRequests (a partial last window) count only when no window
  // is full (smoke-sized runs).
  std::vector<double> p50[2];
  std::vector<double> p99[2];
  std::vector<double> cpu_us[2];
  for (const bool full_only : {true, false}) {
    for (usize w = 0; w < windows; ++w) {
      const usize n = latency[w].size();
      if (n == 0 || (full_only && n < kMinWindowRequests)) continue;
      const double cpu_s =
          window_usage[w + 1].cpu_s() - window_usage[w].cpu_s();
      p50[traced(w)].push_back(quantile(latency[w], 0.5));
      p99[traced(w)].push_back(quantile(latency[w], 0.99));
      cpu_us[traced(w)].push_back(cpu_s * 1e6 / static_cast<double>(n));
    }
    if (!p50[0].empty()) break;
  }

  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s",
                  requests / seconds_between(start, last_resolved), "ops/s");
    report.metric("cpu_us_per_op", median(cpu_us[0]), "us/op");
    report.metric("peak_rss_mb",
                  static_cast<double>(usage_after.maxrss_kb) / 1024.0, "MiB");
    return;
  }
  report_self_times(tracer, report);
  // Request latency over the untraced windows: the user-facing figure,
  // reported per layer because host stalls make it too unsteady to bound.
  report.metric("request_p50_ms", median(p50[0]), "ms");
  report.metric("request_p99_ms", median(p99[0]), "ms");
  report.metric("trace.overhead_pct",
                p50[0].empty() || p50[1].empty()
                    ? 0.0
                    : (median(p50[1]) / median(p50[0]) - 1.0) * 100.0,
                "%");
  report_host(usage_after.cpu_s() - usage_before.cpu_s(),
              usage_after.sys_s - usage_before.sys_s,
              usage_after.minflt - usage_before.minflt, outcomes.size(),
              report);
  std::vector<double> cpu_share_ms;
  std::vector<double> pim_ms;
  std::vector<double> cpu_fraction;
  for (const Span& s : tracer.spans()) {
    if (s.name != "hybrid.run") continue;
    for (const auto& [key, value] : s.args) {
      if (key == "cpu_wall_ms") cpu_share_ms.push_back(value);
      if (key == "pim_wall_ms") pim_ms.push_back(value);
      if (key == "cpu_fraction") cpu_fraction.push_back(value);
    }
  }
  const auto count = [](auto value) { return static_cast<double>(value); };
  report.metric("seq.read_ms", median(source.read_ms), "ms");
  report.metric("seq.bases_copied", count(copied), "bases");
  report.metric("pim.run_ms", median(pim_ms), "ms");
  report.metric("hybrid.cpu_share_ms", median(cpu_share_ms), "ms");
  report.metric("hybrid.cpu_fraction", mean(cpu_fraction), "ratio");
  report.metric("hybrid.calibrations", count(calibrations), "count");
  report.metric("service.admission_wait_p99_ms", quantile(admission_ms, 0.99),
                "ms");
  report.metric("service.latency_p50_ms", service_stats.latency_p50_ms, "ms");
  report.metric("service.latency_p99_ms", service_stats.latency_p99_ms, "ms");
  report.metric("service.batches", count(service_stats.batches), "count");
  report.metric("service.batch_fill",
                count(service_stats.submitted * kRequestPairs) /
                    count(service_stats.batches) /
                    count(service_options.max_batch_pairs),
                "ratio");
  report.metric("service.peak_queued_pairs",
                count(service_stats.peak_queued_pairs), "pairs");
  report.metric("service.peak_resident_pairs",
                count(service_stats.peak_resident_pairs), "pairs");
  report.metric("engine.in_flight_mean", mean(in_flight), "batches");
  report.metric("gen.late_p99_ms", quantile(late_ms, 0.99), "ms");
}

}  // namespace perfbench
