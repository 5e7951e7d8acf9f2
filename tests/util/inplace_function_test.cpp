#include "util/inplace_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

namespace eslurm::util {
namespace {

using SmallFn = InplaceFunction<int(), 32>;

TEST(InplaceFunction, EmptyAndEngagedStates) {
  SmallFn empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  SmallFn engaged([] { return 7; });
  EXPECT_TRUE(static_cast<bool>(engaged));
  EXPECT_EQ(engaged(), 7);
  engaged = nullptr;
  EXPECT_FALSE(static_cast<bool>(engaged));
}

TEST(InplaceFunction, SmallCaptureStaysInline) {
  int x = 41;
  SmallFn fn([x] { return x + 1; });
  EXPECT_TRUE(fn.is_inline());
  EXPECT_EQ(fn(), 42);
  static_assert(SmallFn::stores_inline_v<decltype([x] { return x; })>);
}

TEST(InplaceFunction, OversizedCaptureTakesHeapFallback) {
  std::array<int, 64> big{};
  big[63] = 9;
  SmallFn fn([big] { return big[63]; });
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(fn(), 9);
  static_assert(!SmallFn::stores_inline_v<decltype([big] { return 0; })>);
}

TEST(InplaceFunction, MoveTransfersInlineCallable) {
  int calls = 0;
  InplaceFunction<void(), 32> a([&calls] { ++calls; });
  InplaceFunction<void(), 32> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceFunction, MoveTransfersHeapCallableWithoutDoubleFree) {
  std::array<char, 128> big{};
  big[0] = 'x';
  SmallFn a([big] { return static_cast<int>(big[0]); });
  SmallFn b(std::move(a));
  EXPECT_FALSE(a.is_inline() && static_cast<bool>(a));  // NOLINT
  EXPECT_EQ(b(), 'x');
  SmallFn c;
  c = std::move(b);
  EXPECT_EQ(c(), 'x');
}  // destructors run: ASan would flag a double delete here

TEST(InplaceFunction, MoveOnlyCapturesAreAccepted) {
  auto owned = std::make_unique<int>(5);
  InplaceFunction<int(), 32> fn([p = std::move(owned)] { return *p; });
  EXPECT_EQ(fn(), 5);
  InplaceFunction<int(), 32> moved(std::move(fn));
  EXPECT_EQ(moved(), 5);
}

TEST(InplaceFunction, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* destroyed;
    explicit Probe(int* d) : destroyed(d) {}
    Probe(Probe&& o) noexcept : destroyed(o.destroyed) { o.destroyed = nullptr; }
    ~Probe() {
      if (destroyed) ++*destroyed;
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    InplaceFunction<void(), 32> fn{Probe(&destroyed)};
    InplaceFunction<void(), 32> other(std::move(fn));
    other();
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InplaceFunction, ArgumentsAreForwarded) {
  InplaceFunction<std::string(std::string, int), 48> fn(
      [](std::string s, int n) { return s + std::to_string(n); });
  EXPECT_EQ(fn("n=", 3), "n=3");
  InplaceFunction<int(const std::string&), 32> by_ref(
      [](const std::string& s) { return static_cast<int>(s.size()); });
  const std::string text = "abcd";
  EXPECT_EQ(by_ref(text), 4);
}

TEST(InplaceFunction, SelfAssignmentIsSafe) {
  int calls = 0;
  InplaceFunction<void(), 32> fn([&calls] { ++calls; });
  auto& alias = fn;
  fn = std::move(alias);
  fn();
  EXPECT_EQ(calls, 1);
}

/// A functor with the optional prefetch hook; counts both kinds of call.
struct Hooked {
  int* prefetches;
  int* calls;
  int operator()() const { return ++*calls; }
  void prefetch() const { ++*prefetches; }
};

TEST(InplaceFunction, PrefetchHookCallsTheFunctorOncePerCall) {
  int prefetches = 0;
  int calls = 0;
  SmallFn fn(Hooked{&prefetches, &calls});
  ASSERT_TRUE(fn.is_inline());
  const SmallFn& view = fn;  // the hook is callable through a const function
  view.prefetch();
  EXPECT_EQ(prefetches, 1);
  view.prefetch();
  EXPECT_EQ(prefetches, 2);
  EXPECT_EQ(calls, 0);  // a hint, never the call itself

  SmallFn moved(std::move(fn));
  moved.prefetch();
  EXPECT_EQ(prefetches, 3);  // the hook travels with the callable
  EXPECT_EQ(moved(), 1);
}

TEST(InplaceFunction, PrefetchHookIsANoOpWithoutTheMember) {
  int calls = 0;
  SmallFn lambda([&calls] { return ++calls; });
  lambda.prefetch();
  EXPECT_EQ(calls, 0);

  const SmallFn empty{};
  empty.prefetch();  // must not dereference a missing vtable

  SmallFn reset_fn([&calls] { return ++calls; });
  reset_fn = nullptr;
  reset_fn.prefetch();
  EXPECT_EQ(calls, 0);
}

TEST(InplaceFunction, PrefetchHookIsANoOpForHeapFallbackCallables) {
  struct BigHooked {
    std::array<int, 64> pad{};
    int* prefetches;
    int operator()() const { return pad[0]; }
    void prefetch() const { ++*prefetches; }
  };
  int prefetches = 0;
  SmallFn fn(BigHooked{{}, &prefetches});
  ASSERT_FALSE(fn.is_inline());
  fn.prefetch();
  EXPECT_EQ(prefetches, 0);
  EXPECT_EQ(fn(), 0);
}

}  // namespace
}  // namespace eslurm::util
