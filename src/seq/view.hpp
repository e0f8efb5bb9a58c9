// Non-owning view over a contiguous range of read pairs.
//
// A ReadPairSpan is to ReadPairSet what std::string_view is to
// std::string: a (pointer, length) pair that slices in O(1). It is the
// argument type of the whole batch stack (align::BatchAligner::run and
// the native align_batch APIs), so the hybrid dispatcher, the engine's
// sharded submission and the calibration probes carve sub-batches without
// copying a single base - the data-movement class the PIM design exists
// to eliminate. ReadPairSet converts implicitly, so owning callers keep
// working unchanged.
//
// Lifetime contract: a span borrows the set's pair storage. The set must
// outlive every span over it, and any mutation of the set (add/load/
// move-from) invalidates existing spans, exactly like vector iterators.
// Take the span after the batch is fully built; re-take it after
// mutating.
//
// Lifetime checking: with PIMWFA_CHECKED_VIEWS (see seq/lifetime.hpp) a
// span taken from a set records the set's detached control block and the
// generation it borrowed at; every element access, slicing call and
// engine hand-off re-validates the borrow and throws pimwfa::LifetimeError
// - naming the file:line where the span was taken - the moment the
// contract above is violated. Spans built from a raw (pointer, size) are
// unchecked by design: there is no owner to track. Without the option the
// span is exactly {pointer, size} (statically asserted below) and every
// check compiles to nothing.
#pragma once

#include <atomic>
#include <string_view>

#include "seq/dataset.hpp"
#include "seq/lifetime.hpp"

namespace pimwfa::seq {

// Process-wide count of bases deep-copied by the owning carve APIs
// (ReadPairSet::sample_every, ReadPairSpan::to_owned). The
// dispatchers snapshot it around a run and report the delta as
// BatchTimings::bases_copied; the CI perf gate pins that delta to zero so
// an O(total bases) copy cannot silently return to the hot path.
//
// One atomic, not thread_local: copies performed on pool worker threads
// must be visible to the dispatcher thread that snapshots the delta (a
// thread_local counter silently under-counted exactly the multi-threaded
// runs the gate exists for). All accesses are std::memory_order_relaxed -
// it is a statistic, never a synchronization edge; snapshot deltas are
// exact only while no unrelated run copies concurrently, which is the
// pinned-to-zero regime the gate enforces.
std::atomic<u64>& bases_copied_counter() noexcept;

class ReadPairSpan {
 public:
  ReadPairSpan() = default;
  // Raw-pointer span: unchecked by design (no owning set to track); for
  // callers that manage the storage lifetime themselves.
  ReadPairSpan(const ReadPair* data, usize size) : data_(data), size_(size) {}
  // Implicit: view the whole owning set (the migration path for existing
  // callers that hold a ReadPairSet).
#if PIMWFA_CHECKED_VIEWS
  ReadPairSpan(const ReadPairSet& set,
               std::source_location origin = std::source_location::current());
#else
  ReadPairSpan(const ReadPairSet& set)
      : data_(set.pairs().data()), size_(set.size()) {}
#endif

  usize size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  const ReadPair& operator[](usize i) const {
    check_valid();
    return data_[i];
  }
  std::string_view pattern(usize i) const {
    check_valid();
    return data_[i].pattern;
  }
  std::string_view text(usize i) const {
    check_valid();
    return data_[i].text;
  }

  const ReadPair* data() const PIMWFA_VIEW_NOEXCEPT {
    check_valid();
    return data_;
  }
  const ReadPair* begin() const PIMWFA_VIEW_NOEXCEPT {
    check_valid();
    return data_;
  }
  const ReadPair* end() const PIMWFA_VIEW_NOEXCEPT {
    check_valid();
    return data_ + size_;
  }

  // The sub-view [begin, end) in O(1); throws InvalidArgument when
  // begin > end or end > size(). Bounds misuse is a caller bug, never
  // silently clamped: a sub-batch is an exact work assignment, and a
  // clamped one would silently drop pairs from the batch.
  ReadPairSpan subspan(usize begin, usize end) const;
  // The first min(n, size()) pairs. Clamping (unlike subspan) is the
  // contract here, not leniency: first() expresses a *sampling budget* -
  // "up to n pairs for calibration" - and a batch smaller than the budget
  // is a valid sample of itself, not a caller bug.
  ReadPairSpan first(usize n) const;

  // Longest pattern/text over the viewed pairs (0 for an empty span); the
  // PIM layout sizes its per-pair MRAM slots from these.
  usize max_pattern_length() const PIMWFA_VIEW_NOEXCEPT;
  usize max_text_length() const PIMWFA_VIEW_NOEXCEPT;
  u64 total_bases() const PIMWFA_VIEW_NOEXCEPT;

  // Deep-copy the viewed pairs into an owning set (tests, persistence).
  // Accounts the copied bases in bases_copied_counter(). A span does not
  // know its source set's generation provenance (seed/error_rate/
  // nominal_read_length), so the copy carries none.
  ReadPairSet to_owned() const;

  // Validate the borrow now; throws LifetimeError when the source set has
  // mutated or died since the span was taken. The engine calls this at
  // dispatch and again at task start, so a dangling submission fails in
  // the caller's frame when possible and deterministically in the task
  // otherwise. No-op for raw spans and in unchecked builds.
  void check_valid() const PIMWFA_VIEW_NOEXCEPT {
#if PIMWFA_CHECKED_VIEWS
    // Delegates so the throwing and non-throwing paths can never
    // disagree on what "stale" means. valid() guards the dereference
    // (null control_ is a raw, unchecked span).
    if (!valid()) detail::throw_lifetime_error(*control_, generation_, origin_);
#endif
  }
  // Non-throwing probe of the same condition (diagnostics, tests).
  bool valid() const noexcept {
#if PIMWFA_CHECKED_VIEWS
    return !control_ ||
           (control_->alive.load(std::memory_order_acquire) &&
            control_->generation.load(std::memory_order_acquire) ==
                generation_);
#else
    return true;
#endif
  }

 private:
  const ReadPair* data_ = nullptr;
  usize size_ = 0;
#if PIMWFA_CHECKED_VIEWS
  // The borrow: which storage this span tracks, the generation it was
  // taken at, and where it was taken (the origin named by LifetimeError).
  // Sub-spans inherit all three - the borrow began where the first span
  // was carved from the set.
  detail::ViewControlPtr control_{};
  u64 generation_ = 0;
  std::source_location origin_{};
#endif
};

#if !PIMWFA_CHECKED_VIEWS
// The whole point of the build option: without it, a span is exactly the
// {pointer, size} pair the zero-copy hot paths were designed around.
static_assert(sizeof(ReadPairSpan) == sizeof(void*) + sizeof(usize),
              "ReadPairSpan must stay {pointer, size} when lifetime "
              "checking is compiled out");
#endif

}  // namespace pimwfa::seq
