#include "align/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/check.hpp"
#include "seq/view.hpp"

namespace pimwfa::align {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

u64 count_bases(const std::vector<seq::ReadPair>& pairs) {
  u64 bases = 0;
  for (const auto& pair : pairs) {
    bases += pair.pattern.size() + pair.text.size();
  }
  return bases;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

void ServiceOptions::validate() const {
  PIMWFA_ARG_CHECK(max_batch_pairs >= 1,
                   "max_batch_pairs must be at least 1");
  PIMWFA_ARG_CHECK(max_batch_delay.count() >= 0,
                   "max_batch_delay must be non-negative");
  PIMWFA_ARG_CHECK(max_queued_pairs >= 1,
                   "max_queued_pairs must be at least 1");
}

bool RequestHandle::cancel() noexcept {
  if (!request_) return false;
  if (request_->resolved.load(std::memory_order_acquire)) return false;
  request_->cancelled.store(true, std::memory_order_release);
  return true;
}

AlignService::AlignService(std::unique_ptr<BatchAligner> backend,
                           ServiceOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<BatchEngine>(std::move(backend),
                                            options_.engine.max_in_flight,
                                            options_.engine.workers)) {
  options_.validate();
  const usize arena_count = options_.engine.max_in_flight + 1;
  {
    // No concurrency yet (the threads start below); the lock is taken for
    // the annotation's benefit, and because it costs nothing here.
    MutexLock lock(mutex_);
    arenas_ = std::vector<seq::ReadPairSet>(arena_count);
    for (usize i = 0; i < arena_count; ++i) free_arenas_.push_back(i);
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

AlignService::~AlignService() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  admission_cv_.notify_all();
  // The batcher flushes the forming batch and dispatches everything
  // admitted before it exits; the batch completions touch this service's
  // members, so every one of them must have run before those go.
  batcher_.join();
  engine_->wait_idle();
}

std::shared_ptr<detail::ServiceRequest> AlignService::make_request(
    std::vector<seq::ReadPair> pairs, Clock::time_point deadline) const {
  PIMWFA_ARG_CHECK(!pairs.empty(), "a request needs at least one pair");
  auto request = std::make_shared<detail::ServiceRequest>();
  request->pair_count = pairs.size();
  request->bases = count_bases(pairs);
  request->pairs = std::move(pairs);
  request->enqueue_time = Clock::now();
  request->deadline = deadline;
  return request;
}

bool AlignService::admissible(usize pair_count, u64 bases) const {
  // An empty service always admits: a request bigger than the watermark
  // must still make progress.
  if (queued_pairs_ == 0) return true;
  if (queued_pairs_ + pair_count > options_.max_queued_pairs) return false;
  if (options_.max_queued_bases != 0 &&
      queued_bases_ + bases > options_.max_queued_bases) {
    return false;
  }
  return true;
}

RequestHandle AlignService::admit(
    std::shared_ptr<detail::ServiceRequest> request) {
  RequestHandle handle;
  handle.future_ = request->promise.get_future();
  handle.request_ = request;
  queued_pairs_ += request->pair_count;
  queued_bases_ += request->bases;
  peak_queued_pairs_ = std::max(peak_queued_pairs_, queued_pairs_);
  ++submitted_;
  ++unresolved_;
  pending_.push_back(std::move(request));
  work_cv_.notify_one();
  return handle;
}

std::optional<RequestHandle> AlignService::try_submit(
    std::vector<seq::ReadPair> pairs, Clock::time_point deadline) {
  auto request = make_request(std::move(pairs), deadline);
  MutexLock lock(mutex_);
  PIMWFA_CHECK(!stop_, "submit on stopped AlignService");
  if (!admissible(request->pair_count, request->bases)) {
    ++rejected_;
    return std::nullopt;
  }
  return admit(std::move(request));
}

RequestHandle AlignService::submit_wait(std::vector<seq::ReadPair> pairs,
                                        Clock::time_point deadline) {
  auto request = make_request(std::move(pairs), deadline);
  MutexLock lock(mutex_);
  admission_cv_.wait(lock, [&] {
    mutex_.assert_held();  // predicate runs under CondVar::wait's lock
    return stop_ || admissible(request->pair_count, request->bases);
  });
  PIMWFA_CHECK(!stop_, "submit on stopped AlignService");
  return admit(std::move(request));
}

void AlignService::flush() {
  {
    MutexLock lock(mutex_);
    flush_requested_ = true;
  }
  work_cv_.notify_one();
}

void AlignService::drain() {
  MutexLock lock(mutex_);
  flush_requested_ = true;
  work_cv_.notify_one();
  drain_cv_.wait(lock, [this] {
    mutex_.assert_held();  // predicate runs under CondVar::wait's lock
    return unresolved_ == 0;
  });
}

ServiceStats AlignService::stats() const {
  MutexLock lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.expired = expired_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.batches = batches_;
  s.peak_queued_pairs = peak_queued_pairs_;
  s.peak_resident_pairs = peak_resident_pairs_;
  if (!latency_ms_.empty()) {
    s.latency_p50_ms = latency_ms_.quantile(0.5);
    s.latency_p99_ms = latency_ms_.quantile(0.99);
  }
  return s;
}

bool AlignService::resolve_if_dead(detail::ServiceRequest& request) {
  if (request.cancelled.load(std::memory_order_acquire)) {
    finish_exceptionally(request,
                         std::make_exception_ptr(RequestCancelled(
                             "request cancelled before its batch resolved")),
                         &cancelled_);
    return true;
  }
  if (request.deadline != kNoDeadline && Clock::now() >= request.deadline) {
    finish_exceptionally(request,
                         std::make_exception_ptr(DeadlineExpired(
                             "request deadline expired before its results "
                             "were delivered")),
                         &expired_);
    return true;
  }
  return false;
}

void AlignService::finish_exceptionally(detail::ServiceRequest& request,
                                        std::exception_ptr error,
                                        usize* counter) {
  // resolved is published before the promise so that a cancel() that
  // returns true can never race an outcome already being delivered.
  request.resolved.store(true, std::memory_order_release);
  request.promise.set_exception(std::move(error));
  if (counter) ++*counter;
  release_counters(request);
}

void AlignService::release_counters(detail::ServiceRequest& request) {
  queued_pairs_ -= request.pair_count;
  queued_bases_ -= request.bases;
  --unresolved_;
  admission_cv_.notify_all();
  if (unresolved_ == 0) drain_cv_.notify_all();
}

void AlignService::recycle_arena(usize arena, usize pairs) {
  // clear() bumps the arena's generation: any span still borrowing the
  // retired batch now fails deterministically under PIMWFA_CHECKED_VIEWS.
  arenas_[arena].clear();
  free_arenas_.push_back(arena);
  resident_pairs_ -= pairs;
  arena_cv_.notify_one();
}

void AlignService::dispatch(MutexLock& lock,
                            std::vector<detail::BatchShare>& forming) {
  // Final sweep: requests can be cancelled or expire while the batch
  // forms; resolving them here keeps dead pairs out of the arena.
  std::vector<detail::BatchShare> live;
  live.reserve(forming.size());
  for (auto& share : forming) {
    if (resolve_if_dead(*share.request)) continue;
    live.push_back(std::move(share));
  }
  forming.clear();
  if (live.empty()) return;

  // The ring is the memory bound: block until a batch completes and
  // returns its arena rather than allocating an unbounded queue of them.
  arena_cv_.wait(lock, [this] {
    mutex_.assert_held();  // predicate runs under CondVar::wait's lock
    return !free_arenas_.empty();
  });
  const usize arena_idx = free_arenas_.front();
  free_arenas_.pop_front();
  seq::ReadPairSet& arena = arenas_[arena_idx];

  usize offset = 0;
  for (auto& share : live) {
    share.offset = offset;
    share.count = share.request->pair_count;
    for (auto& pair : share.request->pairs) arena.add(std::move(pair));
    share.request->pairs = {};  // drop the moved-out shells now
    offset += share.count;
  }
  resident_pairs_ += offset;
  peak_resident_pairs_ = std::max(peak_resident_pairs_, resident_pairs_);
  ++batches_;

  auto batch = std::make_shared<const detail::InFlightBatch>(
      detail::InFlightBatch{arena_idx, offset, std::move(live)});

  // The span is taken under the lock, after the arena is fully built
  // (every add() bumped its generation) - it reads the guarded arena's
  // storage pointer. Only the engine hand-off itself runs unlocked, so
  // admission and completions keep flowing meanwhile. The batch owns the
  // arena until complete() recycles it, so nothing mutates what the span
  // points at. A refused hand-off completes the batch here instead.
  const seq::ReadPairSpan arena_span{arena};
  lock.unlocked([&] {
    try {
      engine_->submit(arena_span, options_.scope,
                      [this, batch](BatchResult result,
                                    std::exception_ptr error) {
                        complete(*batch, result, error);
                      });
    } catch (...) {
      complete(*batch, BatchResult{}, std::current_exception());
    }
  });
}

void AlignService::batcher_loop() {
  std::vector<detail::BatchShare> forming;
  usize forming_pairs = 0;
  Clock::time_point oldest{};

  MutexLock lock(mutex_);
  while (true) {
    const auto wake = [this] {
      mutex_.assert_held();  // predicate runs under CondVar::wait's lock
      return stop_ || flush_requested_ || !pending_.empty();
    };
    if (forming.empty()) {
      work_cv_.wait(lock, wake);
    } else {
      work_cv_.wait_until(lock, oldest + options_.max_batch_delay, wake);
    }

    // Pull admitted requests into the forming batch, sweeping the ones
    // already dead.
    while (!pending_.empty() && forming_pairs < options_.max_batch_pairs) {
      std::shared_ptr<detail::ServiceRequest> request =
          std::move(pending_.front());
      pending_.pop_front();
      if (resolve_if_dead(*request)) continue;
      if (forming.empty()) oldest = request->enqueue_time;
      forming_pairs += request->pair_count;
      forming.push_back({std::move(request), 0, 0});
    }

    bool flush_now = flush_requested_ || stop_;
    // A flush covers everything admitted at the time of the call; keep
    // the flag up until pending_ has been fully consumed (one arena's
    // worth per dispatch).
    if (pending_.empty()) flush_requested_ = false;
    if (forming_pairs >= options_.max_batch_pairs) flush_now = true;
    if (!forming.empty() &&
        Clock::now() >= oldest + options_.max_batch_delay) {
      flush_now = true;
    }

    if (forming.empty()) {
      if (stop_ && pending_.empty()) break;
      continue;
    }
    if (!flush_now) continue;

    dispatch(lock, forming);
    forming_pairs = 0;
  }
}

void AlignService::complete(const detail::InFlightBatch& batch,
                            const BatchResult& result,
                            std::exception_ptr error) {
  const Clock::time_point now = Clock::now();
  MutexLock lock(mutex_);
  for (auto& share : batch.shares) {
    detail::ServiceRequest& request = *share.request;
    if (request.cancelled.load(std::memory_order_acquire)) {
      finish_exceptionally(
          request,
          std::make_exception_ptr(RequestCancelled(
              "request cancelled before its batch resolved")),
          &cancelled_);
      continue;
    }
    if (error) {
      // The batch failed as a unit; every share sees the same error.
      finish_exceptionally(request, error, &failed_);
      continue;
    }
    if (request.deadline != kNoDeadline && now >= request.deadline) {
      finish_exceptionally(
          request,
          std::make_exception_ptr(DeadlineExpired(
              "request deadline expired before its results "
              "were delivered")),
          &expired_);
      continue;
    }
    if (result.results.size() < share.offset + share.count) {
      finish_exceptionally(
          request,
          std::make_exception_ptr(Error(
              "backend materialized fewer results than the batch; the "
              "service requires fully materialized backends")),
          &failed_);
      continue;
    }
    const auto begin = result.results.begin() +
                       static_cast<std::ptrdiff_t>(share.offset);
    std::vector<AlignmentResult> slice(
        begin, begin + static_cast<std::ptrdiff_t>(share.count));
    request.resolved.store(true, std::memory_order_release);
    request.promise.set_value(std::move(slice));
    ++completed_;
    latency_ms_.add(ms_between(request.enqueue_time, now));
    release_counters(request);
  }
  recycle_arena(batch.arena, batch.pairs);
}

}  // namespace pimwfa::align
