// Asynchronous batch-submission front-end over any batch backend.
//
// A BatchEngine owns one backend instance plus two long-lived thread
// pools: a dispatcher (one worker per in-flight batch) and a shared
// worker pool handed to every BatchAligner::run call, so per-batch pool
// construction - what the CPU baseline and the PIM simulator used to pay
// on every align_batch - happens once per engine instead. submit() hands
// a batch to the dispatcher and returns immediately; up to max_in_flight
// batches execute concurrently against the (thread-safe) backend, each
// ending in the caller's completion (the future overloads adapt it).
// run_sharded() demonstrates the read-mapper-shaped consumer: split one
// large batch into shards, keep them all in flight, and merge the
// per-shard results back in input order.
//
// Lifecycle: construct over a built backend (e.g. one from
// backend_registry().create) -> submit()/run_sharded() freely from any
// thread -> wait_idle() or let the destructor drain in-flight batches
// (running their completions).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "align/batch.hpp"

namespace pimwfa::align {

// The engine constructor's sizing arguments, bundled for AlignService
// (ServiceOptions::engine).
struct BatchEngineOptions {
  // Concurrently executing batches (dispatcher workers).
  usize max_in_flight = 2;
  // Shared worker pool passed to every backend run (0 = none: backends
  // fall back to their own per-call policy).
  usize workers = 2;
};

class BatchEngine {
 public:
  // Takes ownership of `backend`; throws InvalidArgument for a null
  // backend or max_in_flight == 0.
  BatchEngine(std::unique_ptr<BatchAligner> backend, usize max_in_flight = 2,
              usize workers = 2);
  // Drains in-flight batches before tearing the pools down.
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Runs exactly once per batch, on the dispatcher thread that ran it and
  // before in_flight() drops: with the result and a null error, or with an
  // empty result and the batch's exception (a backend error, or the
  // task-start LifetimeError below). It is called from a noexcept frame,
  // so a throwing completion terminates instead of wedging in_flight().
  using Completion = std::function<void(BatchResult, std::exception_ptr)>;

  // Enqueue a batch view for asynchronous alignment; `done` receives the
  // outcome. Zero-copy: the caller's pair storage must stay alive and
  // unmodified until `done` has run. Because that borrow outlives the call,
  // it must be explicit: an owning lvalue set does not convert silently (see
  // the deleted overloads) - write submit(seq::ReadPairSpan(set), ...) to
  // borrow, or submit(std::move(set), ...) to hand over ownership.
  //
  // Under PIMWFA_CHECKED_VIEWS the borrow is enforced: the span is
  // validated at dispatch (an already-dangling span throws LifetimeError
  // here, synchronously, with the counters untouched) and again at task
  // start (a borrow that went stale in the async gap reaches `done` as
  // LifetimeError instead of a use-after-free in the backend). When
  // submit() throws, `done` never runs.
  void submit(seq::ReadPairSpan batch, AlignmentScope scope, Completion done);
  // Adapter: the future carries what `done` would receive.
  std::future<BatchResult> submit(seq::ReadPairSpan batch,
                                  AlignmentScope scope);
  // Owning overload: moves the set into the batch's completion (no base
  // is copied), so the caller may drop its handle immediately.
  std::future<BatchResult> submit(seq::ReadPairSet&& batch,
                                  AlignmentScope scope);
  // Deleted: an lvalue ReadPairSet would silently become a borrow that
  // must outlive the batch - too easy to dangle. Opt in explicitly with
  // ReadPairSpan(set) or hand the set over with std::move(set).
  void submit(const seq::ReadPairSet& batch, AlignmentScope scope,
              Completion done) = delete;
  std::future<BatchResult> submit(const seq::ReadPairSet& batch,
                                  AlignmentScope scope) = delete;

  // Split `batch` into `shards` contiguous sub-views (O(1) each - the
  // parent storage is borrowed until the call returns), submit them all
  // (in flight together up to max_in_flight), and merge the results back
  // in input order. Modeled times add up across shards - the shards
  // occupy the same modeled hardware back to back - while wall time
  // reflects the overlapped simulation.
  //
  // Error path: every in-flight shard is drained before an error is
  // rethrown (first one wins, like ThreadPool::parallel_for) - a failing
  // shard never leaves later shards running against storage this frame
  // no longer guards. A shard with fewer results than pairs (a pim
  // backend with PimOptions::simulate_dpus) fails the call with Error,
  // as AlignService fails a short batch.
  BatchResult run_sharded(seq::ReadPairSpan batch, AlignmentScope scope,
                          usize shards);

  // Block until every submitted batch has completed.
  void wait_idle();

  // Batches submitted but not yet completed. Observability counters, not
  // synchronization: they are updated and read with relaxed ordering (a
  // reader learns the count, never "the batch's results are visible").
  // Completion is published by the completion / wait_idle(), not by these.
  usize in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  usize submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }

  const BatchAligner& backend() const noexcept { return *backend_; }
  std::string backend_name() const { return backend_->name(); }

 private:
  std::unique_ptr<BatchAligner> backend_;
  // Relaxed atomics (see in_flight()/submitted()): incremented together
  // in submit() before the dispatcher hand-off, decremented by the task
  // after its completion ran - possibly before submit() even returns.
  std::atomic<usize> in_flight_{0};
  std::atomic<usize> submitted_{0};
  // Declaration order doubles as teardown order, so the pools go first:
  // the dispatcher's destructor runs the tasks still queued, and those
  // use the worker pool, the backend and the counters above.
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<ThreadPool> dispatcher_;
};

}  // namespace pimwfa::align
