// Debug-mode borrow checking for the zero-copy batch views.
//
// The whole batch stack passes seq::ReadPairSpan - a non-owning view -
// across async boundaries (BatchEngine completions, pipelined PIM stages,
// cached hybrid calibrations). The lifetime contract ("the set outlives
// every span; mutation invalidates") is documented, but an accidental
// violation in a Release build is a use-after-free that only an ASan
// lottery ticket turns into a diagnosis. This header is the deterministic
// alternative: when PIMWFA_CHECKED_VIEWS is on (the Debug/ASan CI
// configuration), every ReadPairSet owns a detached, heap-allocated
// ViewControl block whose generation counter is bumped by every mutating
// operation (add, reserve-growth, move-from, assignment) and whose alive
// flag is cleared on destruction. Spans record the block and the
// generation they borrowed at; every access re-validates both and throws
// LifetimeError - naming the file:line where the span was taken - instead
// of reading freed memory.
//
// Scope of the guarantee: the checker is deterministic for misuse that is
// *sequenced before* the access - a span used after its set mutated, was
// moved-from or destroyed always throws. A mutation racing the access on
// another thread (storage freed between the check and the dereference) is
// a data race with or without the checker; that remains ASan territory.
// The checks still shrink such races to a one-instruction window and
// catch every sequenced interleaving, which is what turns the engine's
// async hand-offs (validated at dispatch and at task start) into
// deterministic failures.
//
// The block is *detached* (shared_ptr, kept alive by the spans that
// borrowed it) precisely so that destruction of the set is observable:
// the span's validity check reads the control block, never the set.
//
// When PIMWFA_CHECKED_VIEWS is off (the default; Release builds), none of
// this exists: ReadPairSpan stays exactly {pointer, size} (statically
// asserted in view.hpp), ReadPairSet keeps its implicit special members,
// and every check compiles to nothing.
#pragma once

#include "common/types.hpp"

#if !defined(PIMWFA_CHECKED_VIEWS)
#define PIMWFA_CHECKED_VIEWS 0
#endif

// Accessors that validate the borrow can throw in checked builds only;
// they keep their Release noexcept through this macro.
#if PIMWFA_CHECKED_VIEWS
#define PIMWFA_VIEW_NOEXCEPT
#else
#define PIMWFA_VIEW_NOEXCEPT noexcept
#endif

#if PIMWFA_CHECKED_VIEWS

#include <atomic>
#include <memory>
#include <source_location>

namespace pimwfa::seq::detail {

// One per ReadPairSet, shared with every span borrowed from it. Atomics
// because spans validate from engine worker threads while the owning
// thread mutates; the block itself is immutable-shaped (two monotonic
// transitions), so acquire/release is all the ordering needed.
//
// Deliberately lock-free: validation sits on every span access in the
// batch hot path, so there is no Mutex here and no capability
// annotations apply (see common/thread_safety.hpp) - the thread-safety
// story is exactly the two acquire/release transitions below.
struct ViewControl {
  std::atomic<u64> generation{0};
  std::atomic<bool> alive{true};

  // Invalidate every outstanding borrow (mutation, move-from).
  void bump() noexcept { generation.fetch_add(1, std::memory_order_acq_rel); }
  // The storage is gone for good (set destruction).
  void retire() noexcept { alive.store(false, std::memory_order_release); }
};

using ViewControlPtr = std::shared_ptr<ViewControl>;

// Formats and throws pimwfa::LifetimeError for a span borrowed at
// `origin` on generation `borrowed_generation` of `control`.
[[noreturn]] void throw_lifetime_error(const ViewControl& control,
                                       u64 borrowed_generation,
                                       const std::source_location& origin);

}  // namespace pimwfa::seq::detail

#endif  // PIMWFA_CHECKED_VIEWS
