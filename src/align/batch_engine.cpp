#include "align/batch_engine.hpp"

#include <utility>

#include "common/check.hpp"

namespace pimwfa::align {

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
  // frame (LifetimeError under PIMWFA_CHECKED_VIEWS), with the counter
  // untouched.
  batch.check_valid();
  // Counter discipline: a dispatcher that refuses the task (stopped pool)
  // rolls the counter back before the exception escapes - otherwise
  // in_flight_ would read nonzero forever for a batch that never ran. The
  // increment happens before the enqueue because the task's completion
  // decrement may run on a worker thread the instant submit() returns.
  // Relaxed: the counter is observability-only (see the header note); the
  // dispatcher hand-off and the completion provide all the ordering the
  // batch itself needs.
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
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

void BatchEngine::wait_idle() { dispatcher_->wait_idle(); }

}  // namespace pimwfa::align
