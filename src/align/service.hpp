// Streaming alignment service: a long-lived, bounded-memory front-end
// over align::BatchEngine.
//
// The engine runs whole batches whose storage outlives them. AlignService
// is the driver that gives it such batches from a stream: callers submit
// small requests (a few pairs each) from any thread and get a future per
// request, while the service forms engine-sized batches behind the
// scenes:
//
//   ingest --> [admission watermark] --> pending queue
//          --> [batcher thread] forms batches by size/latency watermark,
//              fills a recycled ReadPairSet arena, submits to the engine
//          --> [engine dispatcher thread] runs the batch; its completion
//              resolves the per-request futures (in batch-completion
//              order, not dispatch order) and recycles the arena
//
// Memory stays bounded end to end: admission blocks (submit_wait) or
// refuses (try_submit) above a high-watermark of admitted-but-unfinished
// pairs/bases, and batch storage lives in a fixed ring of
// engine.max_in_flight + 1 generation-counted ReadPairSet arenas (every
// in-flight batch owns one while the next one forms) - an arena is
// cleared and reused only after its batch's completion ran, and under
// PIMWFA_CHECKED_VIEWS any recycle that raced a live borrow surfaces as
// LifetimeError instead of a use-after-free.
//
// Requests carry an optional deadline and can be cancelled; either
// resolves that request's future exceptionally (DeadlineExpired /
// RequestCancelled) without failing the other requests co-batched with
// it.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "align/batch_engine.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_safety.hpp"
#include "seq/dataset.hpp"

namespace pimwfa::align {

// Thrown through a request future when the request was cancelled before
// its results were delivered.
class RequestCancelled : public Error {
 public:
  explicit RequestCancelled(const std::string& what) : Error(what) {}
};

// Thrown through a request future when the request's deadline passed
// before its results were delivered.
class DeadlineExpired : public Error {
 public:
  explicit DeadlineExpired(const std::string& what) : Error(what) {}
};

struct ServiceOptions {
  // The engine built underneath over the service's backend
  // (max_in_flight, workers).
  BatchEngineOptions engine;
  AlignmentScope scope = AlignmentScope::kScoreOnly;

  // Batch formation: flush the forming batch once it holds this many
  // pairs, or once its oldest request has waited this long - whichever
  // fires first. The delay watermark bounds request latency under trickle
  // load; the size watermark keeps batches engine-sized under heavy load.
  usize max_batch_pairs = 1024;
  std::chrono::milliseconds max_batch_delay{5};

  // Admission high-watermark on pairs admitted but not yet resolved
  // (pending + forming + in flight): submit_wait blocks while admitting
  // would exceed it, try_submit refuses. A request larger than the whole
  // watermark is still admitted when the service is empty, so oversize
  // requests make progress instead of wedging.
  usize max_queued_pairs = 8192;
  // The same watermark in total bases (pattern + text); 0 = unlimited.
  // The default bounds resident sequence memory directly, which matters
  // for long reads: 8192 short pairs and a handful of 1Mb pairs are very
  // different footprints, so for long-read traffic this watermark - not
  // max_queued_pairs - is the one that fires first.
  u64 max_queued_bases = 64u << 20;

  // Throws InvalidArgument on out-of-range fields.
  void validate() const;
};

// Monotonic counters + latency quantiles, snapshotted by stats().
struct ServiceStats {
  usize submitted = 0;   // requests admitted
  usize completed = 0;   // futures resolved with results
  usize cancelled = 0;   // resolved with RequestCancelled
  usize expired = 0;     // resolved with DeadlineExpired
  usize failed = 0;      // resolved with a batch/backend error
  usize rejected = 0;    // try_submit refusals (never admitted)
  usize batches = 0;     // batches dispatched to the engine
  usize peak_queued_pairs = 0;    // high-water of admitted-but-unresolved
  usize peak_resident_pairs = 0;  // high-water of pairs across all arenas
  double latency_p50_ms = 0;  // admission -> results, completed requests
  double latency_p99_ms = 0;
};

namespace detail {

// One admitted request. The pairs are owned here until the batcher moves
// them into an arena; the promise is resolved exactly once, by whichever
// of the batcher (swept dead, or its batch refused by the engine) or the
// batch's completion reaches it first.
struct ServiceRequest {
  std::vector<seq::ReadPair> pairs;
  usize pair_count = 0;
  u64 bases = 0;
  std::promise<std::vector<AlignmentResult>> promise;
  std::chrono::steady_clock::time_point enqueue_time{};
  // time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> resolved{false};
};

// A request's slice of the batch it was co-batched into.
struct BatchShare {
  std::shared_ptr<ServiceRequest> request;
  usize offset = 0;  // first result index within the batch
  usize count = 0;
};

struct InFlightBatch {
  usize arena = 0;  // arenas_ index holding this batch's pairs
  usize pairs = 0;
  std::vector<BatchShare> shares;
};

}  // namespace detail

// Caller-side handle to one submitted request. Move-only; get() blocks
// for (and rethrows from) this request's slice of its batch.
class RequestHandle {
 public:
  RequestHandle() = default;

  bool valid() const noexcept { return request_ != nullptr; }

  // Blocks until resolved; returns per-pair results in submission order
  // or rethrows (RequestCancelled, DeadlineExpired, backend errors).
  std::vector<AlignmentResult> get() { return future_.get(); }
  void wait() const { future_.wait(); }

  // Request cancellation. Best-effort: returns true when the request had
  // not yet resolved (it will resolve with RequestCancelled no later
  // than its batch's completion), false when results or an error were
  // already delivered.
  bool cancel() noexcept;

 private:
  friend class AlignService;
  std::shared_ptr<detail::ServiceRequest> request_;
  std::future<std::vector<AlignmentResult>> future_;
};

class AlignService {
 public:
  // Serves requests on `backend` (e.g. one from backend_registry().create),
  // which should materialize every pair it is given: requests past a
  // batch's last result fail instead of resolving. Throws InvalidArgument
  // on out-of-range options.
  AlignService(std::unique_ptr<BatchAligner> backend, ServiceOptions options);
  // Flushes the forming batch, resolves every admitted request, then
  // tears the batcher and engine down.
  ~AlignService();

  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  // Non-blocking admission: nullopt (and a `rejected` tick) when
  // admitting would cross the queue watermark. The pairs are moved in;
  // no caller storage is borrowed.
  std::optional<RequestHandle> try_submit(
      std::vector<seq::ReadPair> pairs,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) PIMWFA_EXCLUDES(mutex_);

  // Blocking admission: waits (backpressure) until the request fits
  // under the watermark, then admits it.
  RequestHandle submit_wait(
      std::vector<seq::ReadPair> pairs,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) PIMWFA_EXCLUDES(mutex_);

  // Ask the batcher to dispatch the forming batch now instead of waiting
  // for a watermark (returns immediately).
  void flush() PIMWFA_EXCLUDES(mutex_);

  // Flush, then block until every admitted request has resolved.
  void drain() PIMWFA_EXCLUDES(mutex_);

  ServiceStats stats() const PIMWFA_EXCLUDES(mutex_);

  const BatchEngine& engine() const noexcept { return *engine_; }

 private:
  void batcher_loop() PIMWFA_EXCLUDES(mutex_);

  std::shared_ptr<detail::ServiceRequest> make_request(
      std::vector<seq::ReadPair> pairs,
      std::chrono::steady_clock::time_point deadline) const;
  bool admissible(usize pair_count, u64 bases) const PIMWFA_REQUIRES(mutex_);
  RequestHandle admit(std::shared_ptr<detail::ServiceRequest> request)
      PIMWFA_REQUIRES(mutex_);
  bool resolve_if_dead(detail::ServiceRequest& request)
      PIMWFA_REQUIRES(mutex_);
  void finish_exceptionally(detail::ServiceRequest& request,
                            std::exception_ptr error, usize* counter)
      PIMWFA_REQUIRES(mutex_);
  void release_counters(detail::ServiceRequest& request)
      PIMWFA_REQUIRES(mutex_);
  void recycle_arena(usize arena, usize pairs) PIMWFA_REQUIRES(mutex_);
  // Fills an arena from `forming` and submits it; complete() resolves it.
  // Drops (and reacquires) `lock` around the engine hand-off.
  void dispatch(MutexLock& lock, std::vector<detail::BatchShare>& forming)
      PIMWFA_REQUIRES(mutex_);
  // Resolves every share of `batch` from its outcome, then recycles its
  // arena. Runs on the dispatcher thread that ran the batch.
  void complete(const detail::InFlightBatch& batch, const BatchResult& result,
                std::exception_ptr error) PIMWFA_EXCLUDES(mutex_);

  ServiceOptions options_;
  std::unique_ptr<BatchEngine> engine_;

  mutable Mutex mutex_;
  CondVar work_cv_;       // batcher <- admission/flush/stop
  CondVar admission_cv_;  // producers <- counter release
  CondVar arena_cv_;      // batcher <- arena recycled
  CondVar drain_cv_;      // drain() <- last resolution

  std::deque<std::shared_ptr<detail::ServiceRequest>> pending_
      PIMWFA_GUARDED_BY(mutex_);
  // The arenas_ *vector* never resizes after construction; each element is
  // handed to exactly one in-flight batch at a time by the free-list
  // protocol below, and the engine reads its pairs through spans outside
  // the lock. The member accesses here (fill, clear, span-take) all
  // happen under the lock, which is what the annotation checks.
  std::vector<seq::ReadPairSet> arenas_ PIMWFA_GUARDED_BY(mutex_);
  std::deque<usize> free_arenas_ PIMWFA_GUARDED_BY(mutex_);

  bool stop_ PIMWFA_GUARDED_BY(mutex_) = false;
  bool flush_requested_ PIMWFA_GUARDED_BY(mutex_) = false;

  usize queued_pairs_ PIMWFA_GUARDED_BY(mutex_) = 0;  // admitted, unresolved
  u64 queued_bases_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize unresolved_ PIMWFA_GUARDED_BY(mutex_) = 0;
  // Pairs currently held across arenas.
  usize resident_pairs_ PIMWFA_GUARDED_BY(mutex_) = 0;

  // stats
  usize submitted_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize completed_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize cancelled_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize expired_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize failed_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize rejected_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize batches_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize peak_queued_pairs_ PIMWFA_GUARDED_BY(mutex_) = 0;
  usize peak_resident_pairs_ PIMWFA_GUARDED_BY(mutex_) = 0;
  SampleSet latency_ms_ PIMWFA_GUARDED_BY(mutex_);

  std::thread batcher_;
};

}  // namespace pimwfa::align
