#include "align/batch_engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"

namespace pimwfa::align {

namespace {

// Future adapter over the completion path (a shared promise keeps the
// callback copyable); `keep_alive` lives as long as the completion does.
std::future<BatchResult> submit_for_future(
    BatchEngine& engine, seq::ReadPairSpan batch, AlignmentScope scope,
    std::shared_ptr<const void> keep_alive) {
  auto promise = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> future = promise->get_future();
  engine.submit(batch, scope,
                [promise, keep_alive = std::move(keep_alive)](
                    BatchResult result, std::exception_ptr error) {
                  if (error) {
                    promise->set_exception(std::move(error));
                  } else {
                    promise->set_value(std::move(result));
                  }
                });
  return future;
}

}  // namespace

BatchEngine::BatchEngine(std::unique_ptr<BatchAligner> backend,
                         usize max_in_flight, usize workers)
    : backend_(std::move(backend)) {
  PIMWFA_ARG_CHECK(backend_ != nullptr, "engine needs a backend");
  PIMWFA_ARG_CHECK(max_in_flight >= 1, "engine needs in-flight capacity");
  if (workers > 0) workers_ = std::make_unique<ThreadPool>(workers);
  dispatcher_ = std::make_unique<ThreadPool>(max_in_flight);
}

BatchEngine::~BatchEngine() = default;  // pool destructors drain the queues

void BatchEngine::submit(seq::ReadPairSpan batch, AlignmentScope scope,
                         Completion done) {
  // Validate the borrow at dispatch, before any engine state changes: a
  // span that is already dangling fails synchronously in the caller's
  // frame (LifetimeError under PIMWFA_CHECKED_VIEWS), with the counters
  // untouched.
  batch.check_valid();
  // Counter discipline: both counters move together, and a dispatcher
  // that refuses the task (stopped pool) rolls them back before the
  // exception escapes - otherwise in_flight_ would read nonzero forever
  // for a batch that never ran. The increment happens before the enqueue
  // because the task's completion decrement may run on a worker thread
  // the instant submit() returns.
  // Relaxed: the counters are observability-only (see the header note);
  // the dispatcher hand-off and the completion provide all the ordering
  // the batch itself needs.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  try {
    // The span is captured by value - the caller's storage outlives the
    // completion per the submit contract - so no base is copied on the way
    // in. noexcept: a throwing completion terminates, never skipping the
    // decrement.
    dispatcher_->submit([this, batch, scope,
                         done = std::move(done)]() noexcept {
      BatchResult result;
      std::exception_ptr error;
      try {
        // Re-validate at task start: the async gap between dispatch and
        // execution is exactly where the borrow goes stale. A violation
        // reaches `done` as LifetimeError instead of the backend reading
        // freed memory.
        batch.check_valid();
        result = backend_->run(batch, scope, workers_.get());
      } catch (...) {
        error = std::current_exception();
      }
      done(std::move(result), std::move(error));
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    });
  } catch (...) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

std::future<BatchResult> BatchEngine::submit(seq::ReadPairSpan batch,
                                             AlignmentScope scope) {
  return submit_for_future(*this, batch, scope, nullptr);
}

std::future<BatchResult> BatchEngine::submit(seq::ReadPairSet&& batch,
                                             AlignmentScope scope) {
  // The set is moved (not copied) into shared ownership that the
  // completion keeps alive until the batch has run; the backend still
  // sees a view.
  const auto owned = std::make_shared<seq::ReadPairSet>(std::move(batch));
  return submit_for_future(*this, seq::ReadPairSpan(*owned), scope, owned);
}

BatchResult BatchEngine::run_sharded(seq::ReadPairSpan batch,
                                     AlignmentScope scope, usize shards) {
  PIMWFA_ARG_CHECK(shards >= 1, "need at least one shard");
  batch.check_valid();
  WallTimer timer;
  const std::vector<std::pair<usize, usize>> ranges =
      ThreadPool::partition(batch.size(), shards);
  std::vector<std::future<BatchResult>> inflight;
  inflight.reserve(ranges.size());
  try {
    for (const auto& [begin, end] : ranges) {
      inflight.push_back(submit(batch.subspan(begin, end), scope));
    }
  } catch (...) {
    // A refused submission must not abandon the shards already in flight:
    // they run against `batch`, whose storage the caller may tear down
    // the moment this frame unwinds. Drain them, then rethrow the
    // submission failure.
    for (auto& future : inflight) {
      try {
        (void)future.get();
      } catch (...) {
        // The submission failure is the primary error.
      }
    }
    throw;
  }

  // Drain every shard before looking at any error: a shard whose .get()
  // rethrows must not leave later shards running against the caller's
  // (possibly unwinding) span. Mirrors ThreadPool::parallel_for - all
  // futures are consumed, the first error wins and is rethrown only once
  // nothing is in flight anymore.
  std::vector<BatchResult> completed(inflight.size());
  std::exception_ptr first_error;
  for (usize shard_index = 0; shard_index < inflight.size(); ++shard_index) {
    try {
      completed[shard_index] = inflight[shard_index].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  BatchResult out;
  out.backend = backend_->name();
  BatchTimings& t = out.timings;
  out.results.reserve(batch.size());
  // Input-order merge: shards are contiguous slices in submission order,
  // and each shard's results are a prefix of its slice. A partially
  // materialized shard (PimOptions::simulate_dpus) ends the merged prefix
  // there - appending later shards would misalign results with input
  // indices.
  bool contiguous = true;
  for (usize shard_index = 0; shard_index < completed.size(); ++shard_index) {
    BatchResult& shard = completed[shard_index];
    if (contiguous) {
      out.results.insert(out.results.end(),
                         std::make_move_iterator(shard.results.begin()),
                         std::make_move_iterator(shard.results.end()));
      const auto [begin, end] = ranges[shard_index];
      if (shard.results.size() < end - begin) contiguous = false;
    }
    const BatchTimings& s = shard.timings;
    t.modeled_seconds += s.modeled_seconds;
    t.pairs += s.pairs;
    t.cpu_wall_seconds += s.cpu_wall_seconds;
    t.cpu_modeled_seconds += s.cpu_modeled_seconds;
    t.cpu_pairs += s.cpu_pairs;
    t.pim_modeled_seconds += s.pim_modeled_seconds;
    t.scatter_seconds += s.scatter_seconds;
    t.kernel_seconds += s.kernel_seconds;
    t.gather_seconds += s.gather_seconds;
    t.bytes_to_device += s.bytes_to_device;
    t.bytes_from_device += s.bytes_from_device;
    t.pim_pairs += s.pim_pairs;
    t.pipeline_chunks = std::max(t.pipeline_chunks, s.pipeline_chunks);
    // Shard carving is O(1) sub-views; any copies happen inside a shard's
    // backend run (and are zero since the view migration).
    t.bases_copied += s.bases_copied;
  }
  t.materialized = out.results.size();
  t.cpu_fraction = t.pairs > 0 ? static_cast<double>(t.cpu_pairs) /
                                     static_cast<double>(t.pairs)
                               : 0.0;
  t.wall_seconds = timer.seconds();
  return out;
}

void BatchEngine::wait_idle() { dispatcher_->wait_idle(); }

}  // namespace pimwfa::align
