// Unit tests for InlineFunction: the fixed-inline-capacity move-only
// callable backing both Simulator::Action (void()) and CacheOpCallback
// (void(const CacheOpResult&)). The properties the kernel and the cache
// hierarchy depend on: captures live entirely inline (no heap), moves
// relocate the capture exactly once, and destructors run exactly once —
// whether the function was invoked, moved from, reset, or simply dropped.
// The InlineTask suite covers the nullary action form; InlineFunction
// covers callables with arguments and a result.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "coherence/interfaces.hpp"
#include "common/inline_function.hpp"
#include "sim/simulator.hpp"

namespace dvmc {
namespace {

using Task = InlineFunction<void(), 64>;

// ---------------------------------------------------------------------------
// Basic invocation and emptiness
// ---------------------------------------------------------------------------

TEST(InlineTask, InvokesStoredCallable) {
  int calls = 0;
  Task t([&calls] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(t));
  t();
  t();
  EXPECT_EQ(calls, 2);
}

TEST(InlineTask, DefaultConstructedIsEmpty) {
  Task t;
  EXPECT_FALSE(static_cast<bool>(t));
}

TEST(InlineTask, ResetMakesTaskEmpty) {
  Task t([] {});
  t.reset();
  EXPECT_FALSE(static_cast<bool>(t));
}

// ---------------------------------------------------------------------------
// Capture-size limits
// ---------------------------------------------------------------------------

TEST(InlineTask, AcceptsCapturesUpToCapacity) {
  // Exactly at the 64-byte budget: eight 8-byte words.
  struct Big {
    std::uint64_t w[8];
  };
  static_assert(sizeof(Big) == Task::kCapacity);
  Big big{};
  big.w[0] = 7;
  big.w[7] = 42;
  static std::uint64_t sum;
  sum = 0;
  // `big` alone is exactly the budget; the result routes through a static
  // because one more captured pointer would (correctly) fail to compile.
  Task t([big] { sum = big.w[0] + big.w[7]; });
  t();
  EXPECT_EQ(sum, 49u);
}

// The over-budget case is a compile error by design; assert the trait the
// static_assert keys on rather than instantiating it.
TEST(InlineTask, CompileTimeBudgetIsTheCaptureSize) {
  struct Pad {
    std::uint64_t w[9];  // 72 bytes
  };
  auto oversized = [p = Pad{}] { (void)p; };
  static_assert(sizeof(oversized) > Task::kCapacity,
                "test premise: capture exceeds the budget");
  static_assert(sizeof(oversized) <= InlineFunction<void(), 72>::kCapacity,
                "and fits the next size up");
}

// ---------------------------------------------------------------------------
// Move-only semantics
// ---------------------------------------------------------------------------

TEST(InlineTask, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Task>);
  static_assert(!std::is_copy_assignable_v<Task>);
  static_assert(std::is_nothrow_move_constructible_v<Task>);
  static_assert(std::is_nothrow_move_assignable_v<Task>);
}

TEST(InlineTask, MoveTransfersTheCallable) {
  int calls = 0;
  Task a([&calls] { ++calls; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineTask, MoveAssignDestroysTheOldCallable) {
  int destroyed = 0;
  struct CountsDestruction {
    int* counter;
    explicit CountsDestruction(int* c) : counter(c) {}
    CountsDestruction(CountsDestruction&& o) noexcept
        : counter(std::exchange(o.counter, nullptr)) {}
    ~CountsDestruction() {
      if (counter != nullptr) ++(*counter);
    }
    void operator()() {}
  };
  Task a{CountsDestruction(&destroyed)};
  Task b([] {});
  a = std::move(b);  // the CountsDestruction payload must die exactly once
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(InlineTask, StoresMoveOnlyCaptures) {
  auto p = std::make_unique<int>(11);
  Task t([p = std::move(p)] { EXPECT_EQ(*p, 11); });
  Task t2(std::move(t));
  t2();
}

// ---------------------------------------------------------------------------
// Destructor runs exactly once
// ---------------------------------------------------------------------------

struct DtorProbe {
  std::shared_ptr<int> count;
  void operator()() const {}
};

TEST(InlineTask, DestructorRunsOnceOnScopeExit) {
  auto count = std::make_shared<int>(0);
  {
    Task t(DtorProbe{count});
    EXPECT_EQ(count.use_count(), 2);
  }
  EXPECT_EQ(count.use_count(), 1);  // capture destroyed with the task
}

TEST(InlineTask, DestructorRunsOnceAcrossMoves) {
  auto count = std::make_shared<int>(0);
  {
    Task a(DtorProbe{count});
    Task b(std::move(a));
    Task c;
    c = std::move(b);
    EXPECT_EQ(count.use_count(), 2);  // exactly one live capture
  }
  EXPECT_EQ(count.use_count(), 1);
}

TEST(InlineTask, ResetAfterMoveIsANoOp) {
  auto count = std::make_shared<int>(0);
  Task a(DtorProbe{count});
  Task b(std::move(a));
  a.reset();  // moved-from: nothing to destroy
  EXPECT_EQ(count.use_count(), 2);
  b.reset();
  EXPECT_EQ(count.use_count(), 1);
  b.reset();  // idempotent
  EXPECT_EQ(count.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Kernel contract
// ---------------------------------------------------------------------------

TEST(InlineTask, SimulatorActionBudgetIsStable) {
  // The kernel promises captures up to kActionCapacityBytes compile and
  // anything larger does not. Guard the constant so a well-meaning "just
  // bump it" shows up in review with the Event-size static_assert.
  static_assert(Simulator::kActionCapacityBytes == 96);
  static_assert(Simulator::Action::kCapacity ==
                Simulator::kActionCapacityBytes);
}

// ---------------------------------------------------------------------------
// Callables with arguments (CacheOpCallback's shape)
// ---------------------------------------------------------------------------

using Completion = InlineFunction<void(const CacheOpResult&), 24>;

TEST(InlineFunction, InvokesWithArgumentsAndResult) {
  InlineFunction<int(int, int), 16> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
  int base = 10;
  InlineFunction<int(int), 16> offset([&base](int x) { return base + x; });
  EXPECT_EQ(offset(1), 11);
  base = 20;
  EXPECT_EQ(offset(1), 21);  // captures by reference stay live
}

TEST(InlineFunction, PassesReferenceArgumentsThrough) {
  std::uint64_t seen = 0;
  Completion cb([&seen](const CacheOpResult& r) { seen = r.value; });
  CacheOpResult r;
  r.value = 0xabc;
  cb(r);
  EXPECT_EQ(seen, 0xabcu);
  // Move-only arguments are forwarded, not copied.
  InlineFunction<int(std::unique_ptr<int>), 8> take(
      [](std::unique_ptr<int> p) { return *p; });
  EXPECT_EQ(take(std::make_unique<int>(5)), 5);
}

TEST(InlineFunction, EmptyStateAndReset) {
  Completion cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  cb = Completion([](const CacheOpResult&) {});
  EXPECT_TRUE(static_cast<bool>(cb));
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineFunction, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Completion>);
  static_assert(!std::is_copy_assignable_v<Completion>);
  static_assert(std::is_nothrow_move_constructible_v<Completion>);
  static_assert(std::is_nothrow_move_assignable_v<Completion>);
}

TEST(InlineFunction, RelocationKeepsTheCaptureAndItsOwnership) {
  auto count = std::make_shared<int>(0);
  int calls = 0;
  {
    // A capture that owns a resource and counts calls: relocating it
    // (what the coherence queues do) moves the one live copy.
    Completion a([count, &calls](const CacheOpResult& r) {
      calls += static_cast<int>(r.value);
    });
    EXPECT_EQ(count.use_count(), 2);
    Completion b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    Completion c;
    c = std::move(b);
    EXPECT_EQ(count.use_count(), 2);
    CacheOpResult r;
    r.value = 3;
    c(r);
    c(r);
  }
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(count.use_count(), 1);  // destroyed exactly once
}

TEST(InlineFunction, CompletionBudgetIsTheCoreCapture) {
  // The core's completion capture is [this, seq, gen, restartGen]; the
  // callback must stay 32 bytes so a controller's [this, op, cb, gen]
  // action fits Simulator::kActionCapacityBytes.
  struct CoreCapture {
    void* self;
    SeqNum seq;
    std::uint32_t gen;
    std::uint32_t rgen;
  };
  static_assert(sizeof(CoreCapture) <= CacheOpCallback::kCapacity);
  static_assert(sizeof(CacheOpCallback) == 32);
  static_assert(sizeof(void*) + sizeof(CacheOp) + sizeof(CacheOpCallback) +
                    sizeof(std::uint32_t) <=
                Simulator::kActionCapacityBytes);
}

}  // namespace
}  // namespace dvmc
