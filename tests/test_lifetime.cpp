// The debug borrow checker for zero-copy views (seq/lifetime.hpp): with
// PIMWFA_CHECKED_VIEWS, every misuse of the span lifetime contract -
// use-after-mutation, use-after-destruction, a span dangling across
// BatchEngine::submit's async boundary - must throw LifetimeError
// deterministically, naming the span's origin, instead of reading freed
// memory; a stress test races ReadPairSet mutation against in-flight
// engine batches. Without the option (Release), the suite pins the
// zero-cost guarantee: ReadPairSpan stays exactly {pointer, size}.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "common/error.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "test_util.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::BatchResult;
using seq::ReadPairSet;
using seq::ReadPairSpan;
using testing::submit_future;

ReadPairSet small_batch(usize pairs = 16, u64 seed = 0x11FE) {
  seq::GeneratorConfig config;
  config.pairs = pairs;
  config.read_length = 48;
  config.error_rate = 0.05;
  config.seed = seed;
  return seq::generate_dataset(config);
}

// Backend test double that reads every viewed pair a few times (checked
// accesses) without the cost of a real aligner.
class ScanBackend final : public align::BatchAligner {
 public:
  BatchResult run(seq::ReadPairSpan batch, align::AlignmentScope,
                  ThreadPool*) override {
    BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize pass = 0; pass < 3; ++pass) {
      for (usize i = 0; i < batch.size(); ++i) {
        out.results[i].score =
            static_cast<i64>(batch.pattern(i).size() + batch.text(i).size());
      }
    }
    out.timings.pairs = batch.size();
    return out;
  }
  std::string name() const override { return "scan"; }
};

// --- mode-independent contracts ------------------------------------------

TEST(LifetimeErrorType, IsACatchablePimwfaError) {
  static_assert(std::is_base_of_v<Error, LifetimeError>);
  try {
    throw LifetimeError("span went stale");
  } catch (const Error& error) {  // callers may catch the base class
    EXPECT_NE(std::string(error.what()).find("stale"), std::string::npos);
  }
}

TEST(RawSpans, AreUncheckedByDesign) {
  // A raw (pointer, size) span has no owning set to track; it is always
  // "valid" as far as the checker is concerned, in both build modes.
  const std::vector<seq::ReadPair> storage = {{"ACGT", "ACGA"},
                                              {"TTTT", "TTAT"}};
  const ReadPairSpan raw(storage.data(), storage.size());
  EXPECT_TRUE(raw.valid());
  EXPECT_NO_THROW(raw.check_valid());
  EXPECT_EQ(raw.pattern(1), "TTTT");
  EXPECT_EQ(raw.subspan(0, 1).size(), 1u);
}

#if !PIMWFA_CHECKED_VIEWS

// --- zero-cost guarantee (Release: the checker is compiled out) ----------

TEST(UncheckedViews, SpanStaysExactlyPointerPlusSize) {
  // Also statically asserted in seq/view.hpp; the runtime duplicate keeps
  // the guarantee visible in the test report.
  EXPECT_EQ(sizeof(ReadPairSpan), sizeof(void*) + sizeof(usize));
}

TEST(UncheckedViews, ChecksAreNoOps) {
  ReadPairSpan stale;
  {
    const ReadPairSet set = small_batch(4);
    stale = ReadPairSpan(set);
  }
  // The handle itself is harmless to validate after the set died; only
  // dereferencing would be UB (which checked builds turn into throws).
  EXPECT_TRUE(stale.valid());
  EXPECT_NO_THROW(stale.check_valid());
}

#else  // PIMWFA_CHECKED_VIEWS

// --- deterministic misuse: mutation ---------------------------------------

TEST(CheckedViews, UseAfterAddThrowsOnEveryAccessor) {
  ReadPairSet set = small_batch(6);
  const ReadPairSpan view(set);
  EXPECT_TRUE(view.valid());
  EXPECT_EQ(view.pattern(0), set[0].pattern);

  set.add({"ACGT", "ACGT"});  // mutation invalidates every outstanding span

  EXPECT_FALSE(view.valid());
  EXPECT_THROW(view.check_valid(), LifetimeError);
  EXPECT_THROW((void)view[0], LifetimeError);
  EXPECT_THROW((void)view.pattern(0), LifetimeError);
  EXPECT_THROW((void)view.text(0), LifetimeError);
  EXPECT_THROW((void)view.data(), LifetimeError);
  EXPECT_THROW((void)view.begin(), LifetimeError);
  EXPECT_THROW((void)view.end(), LifetimeError);
  EXPECT_THROW((void)view.subspan(0, 1), LifetimeError);
  EXPECT_THROW((void)view.first(1), LifetimeError);
  EXPECT_THROW((void)view.max_pattern_length(), LifetimeError);
  EXPECT_THROW((void)view.max_text_length(), LifetimeError);
  EXPECT_THROW((void)view.total_bases(), LifetimeError);
  EXPECT_THROW((void)view.to_owned(), LifetimeError);

  // Re-taking the view after the mutation restores validity.
  const ReadPairSpan fresh(set);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.size(), 7u);
  EXPECT_EQ(fresh.pattern(6), "ACGT");
}

TEST(CheckedViews, GrowingReserveInvalidatesButNoOpReserveDoesNot) {
  ReadPairSet set = small_batch(5);
  set.reserve(64);  // pre-grow, then take the view
  const ReadPairSpan view(set);
  set.reserve(10);  // within capacity: element addresses unchanged
  EXPECT_TRUE(view.valid());
  set.reserve(1024);  // growth may reallocate the pair storage
  EXPECT_THROW((void)view.pattern(0), LifetimeError);
}

TEST(CheckedViews, SubspanInheritsTheParentsBorrow) {
  ReadPairSet set = small_batch(10);
  const ReadPairSpan window = ReadPairSpan(set).subspan(2, 8).subspan(1, 4);
  EXPECT_TRUE(window.valid());
  set.add({"A", "A"});
  EXPECT_FALSE(window.valid());
  EXPECT_THROW((void)window.pattern(0), LifetimeError);
}

TEST(CheckedViews, TheErrorNamesTheSpansOrigin) {
  ReadPairSet set = small_batch(4);
  const ReadPairSpan view(set);  // <- the origin the error must name
  set.add({"ACGT", "ACGT"});
  try {
    (void)view.pattern(0);
    FAIL() << "expected LifetimeError";
  } catch (const LifetimeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("test_lifetime.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("generation"), std::string::npos) << what;
  }
}

// --- deterministic misuse: destruction and move ---------------------------

TEST(CheckedViews, UseAfterDestructionThrowsInsteadOfReadingFreedMemory) {
  ReadPairSpan stale;
  {
    const ReadPairSet set = small_batch(8);
    stale = ReadPairSpan(set);
    EXPECT_TRUE(stale.valid());
  }
  EXPECT_FALSE(stale.valid());
  try {
    (void)stale[0];
    FAIL() << "expected LifetimeError";
  } catch (const LifetimeError& error) {
    EXPECT_NE(std::string(error.what()).find("destroyed"), std::string::npos)
        << error.what();
  }
}

TEST(CheckedViews, MoveFromInvalidatesSpansOverTheSource) {
  ReadPairSet source = small_batch(6);
  const ReadPairSpan view(source);
  ReadPairSet destination = std::move(source);
  // The storage now belongs to `destination`; the borrow from `source`
  // is dead even though the bytes happen to still be alive.
  EXPECT_THROW((void)view.pattern(0), LifetimeError);
  // A view taken from the new owner works.
  EXPECT_EQ(ReadPairSpan(destination).size(), 6u);
}

TEST(CheckedViews, MoveAssignmentInvalidatesBothSidesViews) {
  ReadPairSet a = small_batch(4, 0xA);
  ReadPairSet b = small_batch(5, 0xB);
  const ReadPairSpan view_a(a);
  const ReadPairSpan view_b(b);
  a = std::move(b);  // a's old contents replaced, b's storage taken
  EXPECT_THROW((void)view_a.pattern(0), LifetimeError);
  EXPECT_THROW((void)view_b.pattern(0), LifetimeError);
  EXPECT_EQ(ReadPairSpan(a).size(), 5u);
}

TEST(CheckedViews, CopiesBorrowIndependently) {
  ReadPairSet original = small_batch(6);
  const ReadPairSpan view(original);
  ReadPairSet copy = original;
  copy.add({"ACGT", "ACGT"});  // mutating the copy ...
  EXPECT_TRUE(view.valid());   // ... leaves the original's borrows alone
  original.add({"ACGT", "ACGT"});
  EXPECT_FALSE(view.valid());
  EXPECT_TRUE(ReadPairSpan(copy).valid());
}

// --- the async boundary: BatchEngine::submit ------------------------------

TEST(CheckedEngine, DanglingSpanFailsAtDispatchWithCountersUntouched) {
  align::BatchEngine engine(std::make_unique<ScanBackend>(),
                            /*max_in_flight=*/1, /*workers=*/0);
  ReadPairSpan dangling;
  {
    const ReadPairSet set = small_batch(8);
    dangling = ReadPairSpan(set);
  }
  // The dispatch-time validation fails synchronously, in the caller's
  // frame, before any engine state moved: nothing is in flight (the
  // exception-safe counter contract) and the completion never runs.
  bool completed = false;
  EXPECT_THROW(engine.submit(dangling, AlignmentScope::kScoreOnly,
                             [&completed](BatchResult, std::exception_ptr) {
                               completed = true;
                             }),
               LifetimeError);
  EXPECT_EQ(engine.in_flight(), 0u);

  // The engine is unharmed: a healthy submission still works.
  const ReadPairSet alive = small_batch(8);
  const BatchResult result =
      submit_future(engine, ReadPairSpan(alive), AlignmentScope::kScoreOnly)
          .get();
  EXPECT_EQ(result.results.size(), alive.size());
  // Checked after a later batch ran on the one dispatcher worker, so a
  // stray completion of the refused batch would have run by now.
  EXPECT_FALSE(completed);
}

// Shared scaffolding for the two span-goes-stale-while-queued scenarios:
// a gated blocker occupies the engine's single dispatcher worker, the
// span submission queues behind it (its dispatch-time check passes - the
// set is still alive), then `tamper` mutates or destroys the set before
// the gate opens. The task-start validation must hand the completion
// LifetimeError - the backend never sees the stale span.
template <typename Tamper>
void expect_queued_span_fails(Tamper&& tamper) {
  auto gate = std::make_unique<testing::GateBackend>();
  testing::GateBackend* control = gate.get();
  align::BatchEngine engine(std::move(gate), /*max_in_flight=*/1,
                            /*workers=*/0);

  const ReadPairSet blocker_set = small_batch(4, 0xB10C);
  auto blocker = submit_future(engine, ReadPairSpan(blocker_set),
                               AlignmentScope::kScoreOnly);
  auto set = std::make_optional<ReadPairSet>(small_batch(12, 0x57A1E));
  auto queued =
      submit_future(engine, ReadPairSpan(*set), AlignmentScope::kScoreOnly);

  tamper(set);  // the borrow goes stale while the task is queued
  control->open();

  EXPECT_EQ(blocker.get().results.size(), 4u);  // the blocker is healthy
  EXPECT_THROW(queued.get(), LifetimeError);
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(CheckedEngine, SpanMutatedWhileQueuedFailsAtTaskStart) {
  expect_queued_span_fails(
      [](std::optional<ReadPairSet>& set) { set->add({"ACGT", "ACGT"}); });
}

TEST(CheckedEngine, SpanDestroyedWhileQueuedFailsAtTaskStart) {
  // The storage dies while the task is queued; the detached control
  // block - kept alive by the span itself - survives to report it.
  expect_queued_span_fails(
      [](std::optional<ReadPairSet>& set) { set.reset(); });
}

TEST(CheckedHybrid, PlanRejectsAStaleSpanBeforeProbing) {
  align::BatchOptions options;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_per_pair_seconds = 5e-6;
  align::HybridBatchAligner hybrid(options);
  ReadPairSet set = small_batch(32);
  const ReadPairSpan view(set);
  set.add({"ACGT", "ACGT"});
  EXPECT_THROW((void)hybrid.plan(view, AlignmentScope::kFull), LifetimeError);
  EXPECT_THROW((void)hybrid.run(view, AlignmentScope::kFull), LifetimeError);
  // A fresh view calibrates and runs normally.
  const BatchResult result = hybrid.run(set, AlignmentScope::kFull);
  EXPECT_EQ(result.results.size(), set.size());
}

// --- stress: mutation racing in-flight engine batches ---------------------

// N submissions race the owning thread's mutations. The set's capacity is
// pre-reserved so add() never reallocates: every interleaving is
// memory-safe, and the only question is whether the checker classifies
// each batch deterministically - a future either completes or fails with
// LifetimeError; anything else (another exception, a crash, an ASan
// report) fails the test. The generation counter makes the classification
// sound even though submission and mutation genuinely race.
TEST(CheckedViewStress, MutationRacingInFlightBatchesYieldsOnlyLifetimeErrors) {
  constexpr usize kInitialPairs = 24;
  constexpr usize kIterations = 120;

  ReadPairSet set = small_batch(kInitialPairs, 0x5EED);
  set.reserve(kInitialPairs + kIterations);  // no reallocation, ever

  align::BatchEngine engine(std::make_unique<ScanBackend>(),
                            /*max_in_flight=*/4, /*workers=*/0);

  usize completed = 0;
  usize invalidated = 0;
  std::vector<std::future<BatchResult>> inflight;
  for (usize i = 0; i < kIterations; ++i) {
    // The dispatch-time check always passes - the set is valid on this
    // thread - but the task-start and per-access checks race the add()
    // below.
    inflight.push_back(
        submit_future(engine, ReadPairSpan(set), AlignmentScope::kScoreOnly));
    if (i % 3 == 0) set.add({"ACGTACGT", "ACGTACGA"});
    if (inflight.size() >= 8) {
      for (auto& future : inflight) {
        try {
          (void)future.get();
          ++completed;
        } catch (const LifetimeError&) {
          ++invalidated;
        }
      }
      inflight.clear();
    }
  }
  for (auto& future : inflight) {
    try {
      (void)future.get();
      ++completed;
    } catch (const LifetimeError&) {
      ++invalidated;
    }
  }
  engine.wait_idle();

  EXPECT_EQ(completed + invalidated, kIterations)
      << "every submission must resolve as success or LifetimeError";
  EXPECT_EQ(engine.in_flight(), 0u);

  // The engine and the set both survived the storm: a quiescent run over
  // a fresh view is complete and correct.
  const BatchResult final_run =
      submit_future(engine, ReadPairSpan(set), AlignmentScope::kScoreOnly)
          .get();
  ASSERT_EQ(final_run.results.size(), set.size());
  for (usize i = 0; i < set.size(); ++i) {
    EXPECT_EQ(final_run.results[i].score,
              static_cast<i64>(set[i].pattern.size() + set[i].text.size()));
  }
}

#endif  // PIMWFA_CHECKED_VIEWS

}  // namespace
}  // namespace pimwfa
