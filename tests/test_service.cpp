// Streaming AlignService + chunked record readers: bit-identity of
// chunked vs whole-file parsing, request/batch formation, admission
// backpressure, deadline/cancellation semantics, completion-order
// resolution, and arena recycling under PIMWFA_CHECKED_VIEWS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/registry.hpp"
#include "align/service.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::AlignService;
using align::BatchResult;
using align::RequestHandle;
using align::ServiceOptions;
using align::ServiceStats;
using testing::GateBackend;

// --- chunked readers ------------------------------------------------------

// Budgets that force every interesting boundary: single-record chunks,
// chunks that split multi-line records, and one larger than the file.
const usize kChunkSizes[] = {1, 2, 3, 5, 7, 100};

// Messy but well-formed: CRLF line endings, blank lines between records,
// trailing spaces, multi-line sequences, leading-whitespace headers.
const char kFastaFixture[] =
    ">r0 first\r\nACGTACGT\nACGT\n\n>r1\nTT\r\nTTTT\n\n\n"
    ">r2\nGGGG  \n  >r3\nA\r\nCC\n";
const char kFastqFixture[] =
    "@r0\nACGT\r\n+\nIIII\n\n@r1\nTTTT\n+r1\nJJJJ\n"
    "  @r2\nGG\r\n+\n##\n@r3\nACGTAC\n+\nKKKKKK\n";
const char kSeqFixture[] =
    ">ACGT\r\n<ACCT\n\n>TTTT\n<TTAT  \n>GG\n<GC\r\n>AAAA\n<AAAA\n";

template <typename Reader, typename Record>
std::vector<Record> read_chunked(const std::string& content, usize chunk) {
  std::istringstream is(content);
  Reader reader(is);
  std::vector<Record> out;
  usize calls = 0;
  while (reader.next(out, chunk) > 0) {
    // Every call but the EOF-straddling last appends at most the budget.
    EXPECT_LE(out.size(), (++calls) * chunk);
  }
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.next(out, chunk), 0u);  // spent readers stay spent
  return out;
}

TEST(ChunkReaders, FastaChunkedMatchesWholeFile) {
  std::istringstream whole(kFastaFixture);
  const std::vector<seq::FastaRecord> expected = seq::read_fasta(whole);
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_EQ(expected[0].sequence, "ACGTACGTACGT");
  for (const usize chunk : kChunkSizes) {
    EXPECT_EQ((read_chunked<seq::FastaChunkReader, seq::FastaRecord>(
                  kFastaFixture, chunk)),
              expected)
        << "chunk=" << chunk;
  }
}

TEST(ChunkReaders, FastqChunkedMatchesWholeFile) {
  std::istringstream whole(kFastqFixture);
  const std::vector<seq::FastqRecord> expected = seq::read_fastq(whole);
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_EQ(expected[2].name, "r2");
  for (const usize chunk : kChunkSizes) {
    EXPECT_EQ((read_chunked<seq::FastqChunkReader, seq::FastqRecord>(
                  kFastqFixture, chunk)),
              expected)
        << "chunk=" << chunk;
  }
}

TEST(ChunkReaders, SeqPairsChunkedMatchesWholeFile) {
  std::istringstream whole(kSeqFixture);
  const seq::ReadPairSet expected = seq::read_seq_pairs(whole);
  ASSERT_EQ(expected.size(), 4u);
  for (const usize chunk : kChunkSizes) {
    const auto pairs = read_chunked<seq::SeqPairChunkReader, seq::ReadPair>(
        kSeqFixture, chunk);
    EXPECT_EQ(pairs, expected.pairs()) << "chunk=" << chunk;
  }
}

TEST(ChunkReaders, GeneratedSeqRoundTripsThroughEveryChunkSize) {
  const seq::ReadPairSet set = seq::fig1_dataset(23, 0.02, 0x5EED);
  std::ostringstream os;
  seq::write_seq_pairs(os, set);
  const std::string content = os.str();
  for (const usize chunk : kChunkSizes) {
    const auto pairs =
        read_chunked<seq::SeqPairChunkReader, seq::ReadPair>(content, chunk);
    EXPECT_EQ(pairs, set.pairs()) << "chunk=" << chunk;
  }
}

TEST(ChunkReaders, ZeroBudgetAppendsNothing) {
  std::istringstream is(kSeqFixture);
  seq::SeqPairChunkReader reader(is);
  std::vector<seq::ReadPair> out;
  EXPECT_EQ(reader.next(out, 0), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(reader.done());  // a zero budget must not consume input
  EXPECT_EQ(reader.next(out, 100), 4u);
}

// --- service test doubles -------------------------------------------------

// Instant deterministic backend: score = pattern length.
class ScoreBackend final : public align::BatchAligner {
 public:
  BatchResult run(seq::ReadPairSpan batch, AlignmentScope,
                  ThreadPool*) override {
    BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      out.results[i].score = static_cast<i64>(batch.pattern(i).size());
    }
    out.timings.pairs = batch.size();
    return out;
  }
  std::string name() const override { return "score"; }
};

std::vector<seq::ReadPair> n_pairs(usize n, usize length = 8) {
  std::vector<seq::ReadPair> pairs;
  for (usize i = 0; i < n; ++i) {
    pairs.push_back({std::string(length, 'A'), std::string(length, 'A')});
  }
  return pairs;
}

// Watermarks so large nothing flushes on its own: batches form only on
// flush()/drain(), making batching deterministic for the tests below.
ServiceOptions manual_flush_options() {
  ServiceOptions options;
  options.max_batch_pairs = 1u << 20;
  options.max_batch_delay = std::chrono::hours(1);
  options.max_queued_pairs = 1u << 20;
  return options;
}

// --- service --------------------------------------------------------------

TEST(AlignService, StreamedResultsMatchDirectBackendRun) {
  const seq::ReadPairSet workload = testing::diff_batch(
      {64, 0.05, align::Penalties::defaults(), 0xA11}, 157);

  align::BatchOptions batch_options;
  batch_options.cpu_threads = 2;
  ServiceOptions options;
  options.scope = AlignmentScope::kFull;
  options.max_batch_pairs = 32;
  options.max_batch_delay = std::chrono::milliseconds(1);
  options.max_queued_pairs = 64;
  AlignService service(align::backend_registry().create("cpu", batch_options),
                       options);

  // Stream the workload as requests of awkward sizes (1..13 pairs).
  std::vector<RequestHandle> handles;
  usize i = 0;
  usize request_size = 1;
  while (i < workload.size()) {
    std::vector<seq::ReadPair> request;
    for (usize k = 0; k < request_size && i < workload.size(); ++k, ++i) {
      request.push_back(workload[i]);
    }
    handles.push_back(service.submit_wait(std::move(request)));
    request_size = request_size % 13 + 1;
  }
  service.flush();

  const BatchResult reference =
      align::backend_registry()
          .create("cpu", batch_options)
          ->run(workload, AlignmentScope::kFull);

  // Each request resolves with its own pairs' results in order, so
  // concatenating per-request results must reproduce the whole-set run.
  usize offset = 0;
  for (auto& handle : handles) {
    for (const align::AlignmentResult& result : handle.get()) {
      ASSERT_LT(offset, reference.results.size());
      EXPECT_EQ(result, reference.results[offset]) << "pair " << offset;
      ++offset;
    }
  }
  EXPECT_EQ(offset, workload.size());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, handles.size());
  EXPECT_EQ(stats.completed, handles.size());
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_GT(stats.batches, 1u);  // 157 pairs through 32-pair batches
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

// One admission watermark set so that two 4-pair requests (64 bases each)
// fill the queue, the other set out of reach.
struct Watermark {
  const char* name;
  usize max_queued_pairs;
  u64 max_queued_bases;
};

class AlignServiceWatermark : public ::testing::TestWithParam<Watermark> {};

TEST_P(AlignServiceWatermark, BackpressureEngagesAtWatermarkAndReleases) {
  auto backend = std::make_unique<GateBackend>();
  GateBackend& gate = *backend;
  ServiceOptions options;
  options.max_batch_pairs = 4;
  options.max_batch_delay = std::chrono::milliseconds(0);
  options.max_queued_pairs = GetParam().max_queued_pairs;
  options.max_queued_bases = GetParam().max_queued_bases;
  options.engine.max_in_flight = 1;
  options.engine.workers = 0;
  AlignService service(std::move(backend), options);

  RequestHandle first = service.submit_wait(n_pairs(4));
  RequestHandle second = service.submit_wait(n_pairs(4));
  gate.wait_entered(1);  // one batch is now held in flight by the gate

  // The queue sits at its watermark: non-blocking admission must refuse.
  EXPECT_FALSE(service.try_submit(n_pairs(4)).has_value());
  EXPECT_EQ(service.stats().rejected, 1u);

  // Blocking admission must stall (backpressure), not grow the queue.
  std::atomic<bool> admitted{false};
  RequestHandle third;
  std::thread producer([&] {
    third = service.submit_wait(n_pairs(4));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(admitted.load()) << "submit_wait crossed the watermark";

  // Completing batches releases queue space and wakes the producer.
  gate.open();
  producer.join();
  EXPECT_TRUE(admitted.load());
  service.flush();
  EXPECT_EQ(first.get().size(), 4u);
  EXPECT_EQ(second.get().size(), 4u);
  EXPECT_EQ(third.get().size(), 4u);

  // An empty service admits a request larger than the whole watermark,
  // so oversize requests make progress instead of wedging.
  std::optional<RequestHandle> oversize = service.try_submit(n_pairs(12));
  ASSERT_TRUE(oversize.has_value());
  service.flush();
  EXPECT_EQ(oversize->get().size(), 12u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_LE(stats.peak_queued_pairs, 12u);
}

INSTANTIATE_TEST_SUITE_P(
    Watermarks, AlignServiceWatermark,
    ::testing::Values(Watermark{"pairs", 8, ServiceOptions{}.max_queued_bases},
                      Watermark{"bases", usize{1} << 20, 128}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(AlignService, ExpiredDeadlineDoesNotPoisonCoBatchedRequests) {
  AlignService service(std::make_unique<ScoreBackend>(),
                       manual_flush_options());
  // Admitted together, flushed together: the expired request would land
  // in the same batch as the healthy one if not swept.
  RequestHandle expired = service.submit_wait(
      n_pairs(2), std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  RequestHandle healthy = service.submit_wait(n_pairs(3, 6));
  service.flush();

  EXPECT_THROW(expired.get(), align::DeadlineExpired);
  const auto results = healthy.get();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) EXPECT_EQ(result.score, 6);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(AlignService, CancelBeforeDispatchResolvesOnlyThatRequest) {
  AlignService service(std::make_unique<ScoreBackend>(),
                       manual_flush_options());
  RequestHandle keep = service.submit_wait(n_pairs(2, 5));
  RequestHandle drop = service.submit_wait(n_pairs(2));
  EXPECT_TRUE(drop.cancel());
  service.flush();

  EXPECT_THROW(drop.get(), align::RequestCancelled);
  const auto results = keep.get();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].score, 5);

  // Cancelling an already-resolved request reports failure.
  EXPECT_FALSE(keep.cancel());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(AlignService, CancelWhileInFlightResolvesExceptionally) {
  auto backend = std::make_unique<GateBackend>();
  GateBackend& gate = *backend;
  ServiceOptions options = manual_flush_options();
  options.engine.workers = 0;
  AlignService service(std::move(backend), options);

  RequestHandle cancelled = service.submit_wait(n_pairs(2));
  RequestHandle healthy = service.submit_wait(n_pairs(2, 7));
  service.flush();
  gate.wait_entered(1);  // the batch holding both is now executing
  EXPECT_TRUE(cancelled.cancel());
  gate.open();

  // The batch itself succeeded, but the cancelled share resolves with
  // RequestCancelled; its co-batched neighbor is untouched.
  EXPECT_THROW(cancelled.get(), align::RequestCancelled);
  const auto results = healthy.get();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].score, 7);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

// Requests resolve in batch-completion order: a batch that finishes early
// must not wait behind an earlier batch the backend still holds.
TEST(AlignService, LaterBatchResolvesWhileAnEarlierOneIsHeld) {
  auto backend = std::make_unique<GateBackend>(
      [](seq::ReadPairSpan batch) { return batch.pattern(0).front() == 'C'; });
  GateBackend& gate = *backend;
  ServiceOptions options = manual_flush_options();
  options.engine.max_in_flight = 2;
  options.engine.workers = 0;
  AlignService service(std::move(backend), options);
  RequestHandle held;
  RequestHandle later;
  std::future<std::vector<align::AlignmentResult>> resolved;
  // Declared last, so destroyed first: on every path out of the test the
  // gate opens before anything waits on the held batch.
  struct OpenOnExit {
    GateBackend& gate;
    ~OpenOnExit() { gate.open(); }
  } open_on_exit{gate};

  held = service.submit_wait({{"CCCC", "CCCC"}});
  service.flush();
  gate.wait_entered(1);  // the first batch is now held by the backend
  later = service.submit_wait(n_pairs(2));
  service.flush();

  resolved = std::async(std::launch::async, [&later] { return later.get(); });
  ASSERT_EQ(resolved.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "the later batch waited behind the held one";
  EXPECT_EQ(resolved.get().size(), 2u);
  EXPECT_EQ(service.stats().completed, 1u);

  gate.open();
  EXPECT_EQ(held.get().size(), 1u);
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(AlignService, BackendErrorFailsEveryShareOfTheBatch) {
  class ThrowingBackend final : public align::BatchAligner {
   public:
    BatchResult run(seq::ReadPairSpan, AlignmentScope, ThreadPool*) override {
      throw HardwareFault("dpu fault");
    }
    std::string name() const override { return "throwing"; }
  };
  AlignService service(std::make_unique<ThrowingBackend>(),
                       manual_flush_options());
  RequestHandle a = service.submit_wait(n_pairs(1));
  RequestHandle b = service.submit_wait(n_pairs(1));
  service.flush();
  EXPECT_THROW(a.get(), HardwareFault);
  EXPECT_THROW(b.get(), HardwareFault);
  EXPECT_EQ(service.stats().failed, 2u);
}

// A backend that materializes only a prefix of its batch fails exactly the
// shares that reach past the prefix; the batch's arena still recycles.
TEST(AlignService, UnderMaterializedBatchFailsTheSharesPastThePrefix) {
  class PrefixBackend final : public align::BatchAligner {
   public:
    BatchResult run(seq::ReadPairSpan batch, AlignmentScope,
                    ThreadPool*) override {
      BatchResult out;
      out.backend = name();
      out.results.resize(std::min<usize>(batch.size(), 3));
      for (usize i = 0; i < out.results.size(); ++i) {
        out.results[i].score = static_cast<i64>(batch.pattern(i).size());
      }
      out.timings.pairs = batch.size();
      return out;
    }
    std::string name() const override { return "prefix"; }
  };
  ServiceOptions options = manual_flush_options();
  options.arenas = 1;  // the next batch can only reuse this batch's arena
  AlignService service(std::make_unique<PrefixBackend>(), options);

  RequestHandle inside = service.submit_wait(n_pairs(2, 5));  // results 0-1
  RequestHandle straddling = service.submit_wait(n_pairs(2));  // 2-3
  RequestHandle outside = service.submit_wait(n_pairs(2));     // 4-5
  service.drain();
  const auto results = inside.get();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].score, 5);
  for (RequestHandle* failed : {&straddling, &outside}) {
    try {
      failed->get();
      ADD_FAILURE() << "expected the share past the prefix to fail";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("materialized fewer results"),
                std::string::npos)
          << error.what();
    }
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 2u);

  RequestHandle next = service.submit_wait(n_pairs(3, 4));
  service.drain();
  EXPECT_EQ(next.get().size(), 3u);
  stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.peak_resident_pairs, 6u);
}

TEST(AlignService, DrainResolvesEverythingAdmitted) {
  AlignService service(std::make_unique<ScoreBackend>(),
                       manual_flush_options());
  std::vector<RequestHandle> handles;
  for (usize i = 0; i < 10; ++i) {
    handles.push_back(service.submit_wait(n_pairs(3)));
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 10u);
  for (auto& handle : handles) EXPECT_EQ(handle.get().size(), 3u);
}

TEST(AlignService, DestructorResolvesPendingRequests) {
  RequestHandle handle;
  {
    AlignService service(std::make_unique<ScoreBackend>(),
                         manual_flush_options());
    handle = service.submit_wait(n_pairs(2));
    // No flush: teardown itself must dispatch and resolve the request.
  }
  EXPECT_EQ(handle.get().size(), 2u);
}

TEST(AlignService, RejectsEmptyRequestsAndBadOptions) {
  AlignService service(std::make_unique<ScoreBackend>(),
                       manual_flush_options());
  EXPECT_THROW(service.submit_wait({}), InvalidArgument);
  ServiceOptions bad;
  bad.max_batch_pairs = 0;
  EXPECT_THROW(AlignService(std::make_unique<ScoreBackend>(), bad),
               InvalidArgument);
}

// Arena-recycling stress: a small ring, concurrent producers, thousands
// of pairs streamed through storage that is recycled as fast as batches
// resolve. Every request must end in success - or, if a recycle ever
// raced a live borrow, in LifetimeError (the deterministic failure the
// generation-counted arenas exist to guarantee); any other outcome
// (wrong scores, crashes, sanitizer reports) is a real bug. Runs under
// the Debug ASan/UBSan + PIMWFA_CHECKED_VIEWS CI job.
TEST(AlignService, ArenaRecyclingStressUnderCheckedViews) {
  constexpr usize kProducers = 4;
  constexpr usize kRequestsPerProducer = 60;
  constexpr usize kPairsPerRequest = 3;

  ServiceOptions options;
  options.max_batch_pairs = 16;
  options.max_batch_delay = std::chrono::milliseconds(0);
  options.max_queued_pairs = 48;
  options.arenas = 2;  // recycle hard: only two arenas for the whole run
  options.engine.max_in_flight = 2;
  options.engine.workers = 2;
  AlignService service(std::make_unique<ScoreBackend>(), options);

  std::atomic<usize> ok{0};
  std::atomic<usize> lifetime_errors{0};
  std::atomic<usize> wrong{0};
  std::vector<std::thread> producers;
  for (usize p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (usize r = 0; r < kRequestsPerProducer; ++r) {
        const usize length = 4 + (p + r) % 5;
        RequestHandle handle =
            service.submit_wait(n_pairs(kPairsPerRequest, length));
        try {
          const auto results = handle.get();
          bool good = results.size() == kPairsPerRequest;
          for (const auto& result : results) {
            good = good && result.score == static_cast<i64>(length);
          }
          (good ? ok : wrong).fetch_add(1);
        } catch (const LifetimeError&) {
          lifetime_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(ok.load() + lifetime_errors.load(),
            kProducers * kRequestsPerProducer);
  // The recycling discipline (arenas recycle only after their batch
  // future resolves) means no borrow should ever actually go stale.
  EXPECT_EQ(lifetime_errors.load(), 0u);

  const ServiceStats stats = service.stats();
  // The whole stream passed through two arenas of bounded size.
  EXPECT_LE(stats.peak_resident_pairs,
            2 * (options.max_batch_pairs + kPairsPerRequest - 1));
  EXPECT_EQ(stats.completed, ok.load());
}

#if PIMWFA_CHECKED_VIEWS
TEST(AlignService, ArenaClearInvalidatesSpansDeterministically) {
  seq::ReadPairSet arena;
  arena.add({"ACGT", "ACGT"});
  arena.reserve(8);
  const seq::ReadPairSpan span(arena);
  EXPECT_TRUE(span.valid());
  arena.clear();  // the recycle operation: generation bump, kept capacity
  EXPECT_FALSE(span.valid());
  EXPECT_THROW(span.check_valid(), LifetimeError);
}
#endif

}  // namespace
}  // namespace pimwfa
