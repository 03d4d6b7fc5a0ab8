#include "sim/inline_callback.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <utility>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Count heap traffic so the SBO boundary is observable: captures at or
// under kInlineSize must not allocate, captures over it must box exactly
// once. Program-global, hence this suite's own test binary. The aligned
// forms are replaced too: libstdc++ sends them to aligned_alloc directly,
// not through operator new(std::size_t).
// None is inlined: GCC would pair an inlined malloc or free with the
// other side's operator and report a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace adattl::sim {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Non-trivial capture that counts every construction and destruction.
struct LifeCounted {
  static int constructions;
  static int destructions;

  LifeCounted() { ++constructions; }
  LifeCounted(const LifeCounted&) { ++constructions; }
  LifeCounted(LifeCounted&&) noexcept { ++constructions; }
  ~LifeCounted() { ++destructions; }

  static void reset() { constructions = destructions = 0; }
  static int alive() { return constructions - destructions; }
};
int LifeCounted::constructions = 0;
int LifeCounted::destructions = 0;

TEST(InlineCallback, EmptyByDefault) {
  InlineCallback cb;
  EXPECT_FALSE(cb);
  InlineCallback null_cb(nullptr);
  EXPECT_FALSE(null_cb);
}

TEST(InlineCallback, InvokesSmallCapture) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(cb);
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CaptureExactlyAtBoundaryStaysInline) {
  struct Payload {
    unsigned char bytes[InlineCallback::kInlineSize - sizeof(int*)];
    int* out;
  };
  static_assert(sizeof(Payload) == InlineCallback::kInlineSize);
  int result = 0;
  Payload p{};
  p.bytes[0] = 42;
  p.out = &result;
  auto fn = [p] { *p.out = p.bytes[0]; };
  static_assert(InlineCallback::fits_inline<decltype(fn)>());

  const std::uint64_t before = allocations();
  InlineCallback cb(fn);
  cb();
  EXPECT_EQ(allocations() - before, 0u) << "boundary-sized capture must not allocate";
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeapAndStillWorks) {
  struct Big {
    unsigned char bytes[InlineCallback::kInlineSize + 8];
    int* out;
  };
  int result = 0;
  Big b{};
  b.bytes[0] = 7;
  b.out = &result;
  auto fn = [b] { *b.out = b.bytes[0]; };
  static_assert(!InlineCallback::fits_inline<decltype(fn)>());

  const std::uint64_t before = allocations();
  InlineCallback cb(fn);
  EXPECT_EQ(allocations() - before, 1u) << "oversized capture boxes exactly once";
  cb();
  EXPECT_EQ(result, 7);

  // Moving a boxed callback shuffles the pointer, not the payload.
  const std::uint64_t before_move = allocations();
  InlineCallback moved(std::move(cb));
  EXPECT_EQ(allocations() - before_move, 0u);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from must be empty
  result = 0;
  moved();
  EXPECT_EQ(result, 7);
}

TEST(InlineCallback, MoveOnlyCapture) {
  auto value = std::make_unique<int>(99);
  int seen = 0;
  InlineCallback cb([v = std::move(value), &seen] { seen = *v; });
  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(seen, 99);
}

TEST(InlineCallback, MoveAssignmentDestroysPreviousTarget) {
  LifeCounted::reset();
  {
    InlineCallback a([c = LifeCounted{}] { (void)c; });
    InlineCallback b([c = LifeCounted{}] { (void)c; });
    EXPECT_EQ(LifeCounted::alive(), 2);
    b = std::move(a);  // b's capture destroyed; a's relocated into b
    EXPECT_EQ(LifeCounted::alive(), 1);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(b);
  }
  EXPECT_EQ(LifeCounted::alive(), 0) << "every construction must be matched by a destruction";
}

TEST(InlineCallback, DestructionCountsBalanceThroughMoveChains) {
  LifeCounted::reset();
  {
    InlineCallback cb([c = LifeCounted{}] { (void)c; });
    InlineCallback hop1(std::move(cb));
    InlineCallback hop2(std::move(hop1));
    hop2();
    EXPECT_EQ(LifeCounted::alive(), 1);
  }
  EXPECT_EQ(LifeCounted::alive(), 0);
}

TEST(InlineCallback, ResetDestroysExactlyOnce) {
  LifeCounted::reset();
  InlineCallback cb([c = LifeCounted{}] { (void)c; });
  EXPECT_EQ(LifeCounted::alive(), 1);
  cb.reset();
  EXPECT_FALSE(cb);
  EXPECT_EQ(LifeCounted::alive(), 0);
  cb.reset();  // idempotent
  EXPECT_EQ(LifeCounted::alive(), 0);
}

TEST(InlineCallback, TriviallyCopyableCaptureRelocatesByMemcpy) {
  // Not directly observable, but pin the dispatch-kernel assumption that
  // plain [this]-style captures are trivially relocatable and inline.
  struct Fake {
    double a;
    int b;
  };
  int out = 0;
  Fake f{1.5, 21};
  auto fn = [f, &out] { out = f.b * 2; };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(InlineCallback::fits_inline<decltype(fn)>());
  static_assert(InlineCallback::trivial_inline<decltype(fn)>());
  InlineCallback cb(fn);
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(out, 42);
}

TEST(InlineCallback, AssertInlinePassesThrough) {
  int hits = 0;
  InlineCallback cb(assert_inline([&hits] { ++hits; }));
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, IsFortyEightBytes) {
  // 32 bytes of capture, invoke_ and manage_: with seq and generation an
  // event slot fills exactly one 64-byte line.
  EXPECT_EQ(sizeof(InlineCallback), 48u);
  EXPECT_EQ(alignof(InlineCallback), alignof(void*));
}

TEST(InlineCallback, StdFunctionCaptureStaysInlineThroughManage) {
  // A capture holding a std::function (BM_SimulatorDispatch's shape) fits
  // the buffer but is not trivially copyable, so its moves and its
  // destruction go through manage_. The std::function's target counts its
  // own constructions and destructions.
  LifeCounted::reset();
  int hits = 0;
  {
    std::function<void()> fn = [c = LifeCounted{}, &hits] {
      (void)c;
      ++hits;
    };
    auto capture = [fn = std::move(fn)] { fn(); };
    static_assert(InlineCallback::fits_inline<decltype(capture)>());
    static_assert(!InlineCallback::trivial_inline<decltype(capture)>());
    ASSERT_EQ(LifeCounted::alive(), 1);

    const std::uint64_t before = allocations();
    InlineCallback cb(std::move(capture));
    InlineCallback hop1(std::move(cb));
    InlineCallback hop2;
    hop2 = std::move(hop1);
    EXPECT_FALSE(cb);    // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(hop1);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(hop2);
    hop2();
    EXPECT_EQ(allocations() - before, 0u) << "an inline std::function capture must not allocate";
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(LifeCounted::alive(), 1) << "moves relocate the std::function, never copy it";
    hop2.reset();
    EXPECT_EQ(LifeCounted::alive(), 0) << "reset destroys the std::function once";
  }
  EXPECT_EQ(LifeCounted::alive(), 0);
}

TEST(InlineCallback, TrivialTraitBehindAssertInline) {
  // assert_inline static-asserts trivial_inline: only inline captures that
  // are trivially copyable and trivially destructible pass, so every kernel
  // callback moves by memcpy and is destroyed by one null test.
  int x = 0;
  double d = 0.0;
  auto pointers = [&x, &d] { x = static_cast<int>(d); };
  static_assert(InlineCallback::trivial_inline<decltype(pointers)>());

  auto function = [fn = std::function<void()>()] { fn(); };
  static_assert(InlineCallback::fits_inline<decltype(function)>());
  static_assert(!InlineCallback::trivial_inline<decltype(function)>());

  auto unique = [p = std::make_unique<int>(1)] { (void)p; };
  static_assert(InlineCallback::fits_inline<decltype(unique)>());
  static_assert(!InlineCallback::trivial_inline<decltype(unique)>());

  auto counted = [c = LifeCounted{}] { (void)c; };
  static_assert(!InlineCallback::trivial_inline<decltype(counted)>());

  struct Big {
    unsigned char bytes[InlineCallback::kInlineSize + 8];
  };
  auto oversized = [b = Big{}] { (void)b; };
  static_assert(std::is_trivially_copyable_v<decltype(oversized)>);
  static_assert(!InlineCallback::trivial_inline<decltype(oversized)>());
  SUCCEED();
}

}  // namespace
}  // namespace adattl::sim
