// Streamed AlignService vs one whole-set backend run, with the service's
// batch formation gated on counts.
//
// The same workload runs two ways on the same backend: as one
// BatchAligner::run over the materialized set on a --workers thread pool
// (the one-shot reference), and as a stream of small requests through an
// AlignService, which forms engine-sized batches in its bounded arena
// ring. Each repetition runs both back to back. The bench verifies that
// the per-request results are bit-identical to the one-shot results and
// that the arena ring bounded resident pair storage, and reports
// throughput plus p50/p99 request latency. With --json it emits the
// BENCH_service.json that the perf-smoke CI job gates on: the batches
// formed, the peak resident pairs and the bases copied while the requests
// streamed. With --batch-delay-ms far beyond the run, only the size
// watermark and the final flush form batches, so all three are exact
// for fixed flags. The streamed/one-shot wall ratio is measured and
// reported, not gated: it moves with the runner.
//
//   ./bench_service
//   ./bench_service --pairs 50000 --request 32 --batch-pairs 2048
//   ./bench_service --batch-delay-ms 60000 --json BENCH_service.json
#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "align/cli.hpp"
#include "align/registry.hpp"
#include "align/service.hpp"
#include "common/bench_report.hpp"
#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"

int main(int argc, char** argv) {
  using namespace pimwfa;
  Cli cli(argc, argv);
  cli.set_description(
      "Sustained AlignService streaming throughput vs one whole-set run "
      "on the same backend");
  align::BatchFlags defaults;
  defaults.pairs = 20000;
  defaults.score_only = true;
  align::BatchFlags flags;
  usize request_pairs = 0;
  usize batch_pairs = 0;
  i64 batch_delay_ms = 0;
  usize queue_pairs = 0;
  usize max_in_flight = 0;
  usize workers = 0;
  usize repeats = 0;
  std::string json;
  try {
    flags = align::parse_batch_flags(cli, defaults);
    request_pairs = static_cast<usize>(
        cli.get_int("request", 64, "pairs per service request"));
    batch_pairs = static_cast<usize>(
        cli.get_int("batch-pairs", 1024, "service batch-size watermark"));
    batch_delay_ms = cli.get_int(
        "batch-delay-ms", 2, "service batch-latency watermark");
    queue_pairs = static_cast<usize>(cli.get_int(
        "queue-pairs", 4096, "admission high-watermark (backpressure)"));
    max_in_flight = static_cast<usize>(
        cli.get_int("in-flight", 2, "concurrent engine batches"));
    workers = static_cast<usize>(
        cli.get_int("workers", 4, "worker threads (engine and one-shot)"));
    repeats = static_cast<usize>(
        cli.get_int("repeat", 2, "timed repetitions (best wins)"));
    json = cli.get_string("json", "", "write a BenchReport here");
    cli.reject_unknown_flags();
  } catch (const Error& error) {
    // --help wins over a malformed or unknown flag.
    if (cli.help_requested()) {
      std::cout << cli.help();
      return 0;
    }
    std::cerr << "bench_service: " << error.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  if (request_pairs == 0 || repeats == 0) {
    std::cerr << "bench_service: --request and --repeat must be positive\n";
    return 2;
  }

  const seq::ReadPairSet workload =
      seq::fig1_dataset(flags.pairs, flags.error_rate, flags.seed);

  const auto make_backend = [&] {
    return align::backend_registry().create(flags.backend, flags.options);
  };
  align::ServiceOptions service_options;
  service_options.engine.max_in_flight = max_in_flight;
  service_options.engine.workers = workers;
  service_options.scope = flags.scope();
  service_options.max_batch_pairs = batch_pairs;
  service_options.max_batch_delay = std::chrono::milliseconds(batch_delay_ms);
  service_options.max_queued_pairs = queue_pairs;

  std::cout << "AlignService streaming vs one-shot run ("
            << with_commas(workload.size()) << " pairs, backend="
            << flags.backend << ", request=" << request_pairs
            << ", batch<=" << batch_pairs << ")\n\n";

  // The one-shot run gets the worker pool the service's engine hands its
  // backend (none for --workers 0).
  const std::unique_ptr<ThreadPool> pool =
      workers > 0 ? std::make_unique<ThreadPool>(workers) : nullptr;

  // Each repetition measures the one-shot path and the streaming path
  // back to back, and the reported ratio is the best per-rep ratio:
  // paired runs see the same machine conditions (noisy-neighbor epochs,
  // single-core scheduling), so the ratio is more stable than comparing a
  // best-of-N of each phase measured at different times.
  double oneshot_seconds = 0;
  double service_seconds = 0;
  double best_ratio = 0;
  u64 bases_copied = 0;
  align::BatchResult oneshot;
  align::ServiceStats stats;
  bool verified = true;
  for (usize rep = 0; rep < repeats; ++rep) {
    // --- one-shot reference: one run over the materialized set -----------
    const std::unique_ptr<align::BatchAligner> backend = make_backend();
    WallTimer oneshot_timer;
    oneshot = backend->run(workload, flags.scope(), pool.get());
    const double rep_oneshot_seconds = oneshot_timer.seconds();
    if (rep == 0 || rep_oneshot_seconds < oneshot_seconds) {
      oneshot_seconds = rep_oneshot_seconds;
    }

    // --- streaming: the same pairs as a stream of small requests ---------
    // Request payloads are chunked outside the timed region: building
    // them is the client's cost (live streaming gets them from the chunk
    // readers), while the timed region is the service's - admission,
    // batch formation, engine execution, per-request resolution.
    std::vector<std::vector<seq::ReadPair>> requests;
    requests.reserve(workload.size() / request_pairs + 1);
    for (const seq::ReadPair& pair : workload.pairs()) {
      if (requests.empty() || requests.back().size() == request_pairs) {
        requests.emplace_back();
        requests.back().reserve(request_pairs);
      }
      requests.back().push_back(pair);
    }
    align::AlignService service(make_backend(), service_options);
    std::vector<align::RequestHandle> handles;
    handles.reserve(requests.size());
    // Every base copied while the requests stream - by the service or by
    // the backend under it - moves this process-wide counter.
    const u64 copied_before =
        seq::bases_copied_counter().load(std::memory_order_relaxed);
    WallTimer timer;
    for (auto& request : requests) {
      handles.push_back(service.submit_wait(std::move(request)));
    }
    service.flush();
    service.drain();
    const double rep_service_seconds = timer.seconds();
    bases_copied +=
        seq::bases_copied_counter().load(std::memory_order_relaxed) -
        copied_before;
    if (rep == 0 || rep_service_seconds < service_seconds) {
      service_seconds = rep_service_seconds;
    }
    best_ratio =
        std::max(best_ratio, rep_oneshot_seconds / rep_service_seconds);
    stats = service.stats();

    // Bit-identity: concatenated request results == the one-shot results.
    usize offset = 0;
    for (auto& handle : handles) {
      for (align::AlignmentResult& result : handle.get()) {
        if (offset >= oneshot.results.size() ||
            !(result == oneshot.results[offset])) {
          verified = false;
        }
        ++offset;
      }
    }
    if (offset != oneshot.results.size()) verified = false;
  }
  if (!verified) {
    std::cerr << "bench_service: streamed results diverge from the "
                 "one-shot run\n";
    return 1;
  }
  const double pairs_f = static_cast<double>(workload.size());
  const double oneshot_throughput = pairs_f / oneshot_seconds;
  const double service_throughput = pairs_f / service_seconds;

  // The whole point of the arena ring: resident batch storage stays under
  // ring-size x batch-size no matter how many pairs streamed through.
  const usize arena_count = max_in_flight + 1;  // the service's ring
  const usize resident_bound = arena_count * (batch_pairs + request_pairs - 1);
  if (stats.peak_resident_pairs > resident_bound) {
    std::cerr << "bench_service: peak resident pairs "
              << stats.peak_resident_pairs << " exceeded the arena bound "
              << resident_bound << "\n";
    return 1;
  }

  std::cout << strprintf("  %-22s %12s %14s\n", "path", "wall", "pairs/s");
  std::cout << "  " << std::string(50, '-') << "\n";
  std::cout << strprintf(
      "  %-22s %12s %14s\n", "one-shot run",
      format_seconds(oneshot_seconds).c_str(),
      with_commas(static_cast<u64>(oneshot_throughput)).c_str());
  std::cout << strprintf(
      "  %-22s %12s %14s\n", "streamed service",
      format_seconds(service_seconds).c_str(),
      with_commas(static_cast<u64>(service_throughput)).c_str());
  std::cout << strprintf(
      "\n  service/one-shot: %.3fx (best paired rep; measured, not gated); "
      "request latency p50 %.2fms p99 %.2fms\n",
      best_ratio, stats.latency_p50_ms, stats.latency_p99_ms);
  std::cout << strprintf(
      "  %s batches; peak resident %s pairs (bound %s), peak queued %s "
      "pairs; %s bases copied\n",
      with_commas(stats.batches).c_str(),
      with_commas(stats.peak_resident_pairs).c_str(),
      with_commas(resident_bound).c_str(),
      with_commas(stats.peak_queued_pairs).c_str(),
      with_commas(bases_copied).c_str());
  std::cout << "  verified: streamed results bit-identical to the one-shot "
               "run\n";

  BenchReport report("service");
  report.set_param("pairs", static_cast<i64>(workload.size()));
  report.set_param("backend", flags.backend);
  report.set_param("request_pairs", static_cast<i64>(request_pairs));
  report.set_param("batch_pairs", static_cast<i64>(batch_pairs));
  report.set_param("batch_delay_ms", batch_delay_ms);
  report.set_param("queue_pairs", static_cast<i64>(queue_pairs));
  report.set_param("max_in_flight", static_cast<i64>(max_in_flight));
  report.set_param("workers", static_cast<i64>(workers));
  report.set_param("error_rate", flags.error_rate);
  report.set_param("score_only", flags.score_only ? "true" : "false");
  // Measured wall time; not gated (see the header).
  report.add_metric("service_throughput", service_throughput, "pairs/s");
  report.add_metric("oneshot_throughput", oneshot_throughput, "pairs/s");
  report.add_metric("service_vs_oneshot_throughput", best_ratio, "x");
  report.add_metric("latency_p50_ms", stats.latency_p50_ms, "ms");
  report.add_metric("latency_p99_ms", stats.latency_p99_ms, "ms");
  // The CI gates, from the last repetition's service: exact counts when
  // the delay watermark never fires.
  report.add_metric("batches", static_cast<double>(stats.batches));
  report.add_metric("peak_resident_pairs",
                    static_cast<double>(stats.peak_resident_pairs), "pairs");
  // Zero-copy tripwire over every repetition's streamed run, pinned to
  // exactly 0 by the CI baseline.
  report.add_metric("bases_copied", static_cast<double>(bases_copied));
  if (!json.empty()) {
    report.write(json);
    std::cout << "\nBenchReport written to " << json << "\n";
  }
  return 0;
}
