// Asynchronous batch-submission front-end over any batch backend.
//
// A BatchEngine owns one backend instance plus two long-lived thread
// pools: a dispatcher (one worker per in-flight batch) and a shared
// worker pool handed to every BatchAligner::run call, so per-batch pool
// construction - what the CPU baseline and the PIM simulator used to pay
// on every align_batch - happens once per engine instead. submit() hands
// a batch to the dispatcher and returns immediately; up to max_in_flight
// batches execute concurrently against the (thread-safe) backend, each
// ending in the caller's completion. AlignService is the driver built on
// it.
//
// Lifecycle: construct over a built backend (e.g. one from
// backend_registry().create) -> submit() freely from any thread ->
// wait_idle() or let the destructor drain in-flight batches (running
// their completions).
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>

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
  // the deleted overload) - write submit(seq::ReadPairSpan(set), ...).
  //
  // Under PIMWFA_CHECKED_VIEWS the borrow is enforced: the span is
  // validated at dispatch (an already-dangling span throws LifetimeError
  // here, synchronously, with in_flight() untouched) and again at task
  // start (a borrow that went stale in the async gap reaches `done` as
  // LifetimeError instead of a use-after-free in the backend). When
  // submit() throws, `done` never runs.
  void submit(seq::ReadPairSpan batch, AlignmentScope scope, Completion done);
  // Deleted: an lvalue ReadPairSet would silently become a borrow that
  // must outlive the batch - too easy to dangle. Opt in explicitly with
  // ReadPairSpan(set).
  void submit(const seq::ReadPairSet& batch, AlignmentScope scope,
              Completion done) = delete;

  // Block until every submitted batch has completed.
  void wait_idle();

  // Batches submitted but not yet completed. An observability counter, not
  // synchronization: it is updated and read with relaxed ordering (a
  // reader learns the count, never "the batch's results are visible").
  // Completion is published by the completion / wait_idle(), not by it.
  usize in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<BatchAligner> backend_;
  // Relaxed atomic (see in_flight()): incremented in submit() before the
  // dispatcher hand-off, decremented by the task after its completion ran
  // - possibly before submit() even returns.
  std::atomic<usize> in_flight_{0};
  // Declaration order doubles as teardown order, so the pools go first:
  // the dispatcher's destructor runs the tasks still queued, and those
  // use the worker pool, the backend and the counter above.
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<ThreadPool> dispatcher_;
};

}  // namespace pimwfa::align
