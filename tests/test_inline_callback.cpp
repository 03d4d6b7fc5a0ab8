#include "sim/inline_callback.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace adattl::sim {
namespace {

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
  cb.reset();
  EXPECT_FALSE(cb);
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
  static_assert(InlineCallback::accepts<decltype(fn)>());

  InlineCallback cb(fn);
  cb();
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, TriviallyCopyableCaptureRelocatesByMemcpy) {
  // Moves copy the buffer byte for byte and leave the source empty; plain
  // [this]-style captures of the kernel must survive that.
  struct Fake {
    double a;
    int b;
  };
  int out = 0;
  Fake f{1.5, 21};
  auto fn = [f, &out] { out = f.b * 2; };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(InlineCallback::accepts<decltype(fn)>());
  InlineCallback cb(fn);
  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from must be empty
  moved();
  EXPECT_EQ(out, 42);

  // Move assignment replaces the previous target.
  int other = 0;
  InlineCallback replaced([&other] { ++other; });
  replaced = std::move(moved);
  EXPECT_FALSE(moved);  // NOLINT(bugprone-use-after-move)
  out = 0;
  replaced();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(other, 0);
}

TEST(InlineCallback, IsFortyBytes) {
  // 32 bytes of capture and invoke_: with seq and generation an event slot
  // fits one 64-byte line.
  EXPECT_EQ(sizeof(InlineCallback), 40u);
  EXPECT_EQ(alignof(InlineCallback), alignof(void*));
}

TEST(InlineCallback, TraitRejectsOversizedAndNonTrivialCaptures) {
  // The constructor static-asserts accepts(): only captures that fit the
  // buffer and are trivially copyable and destructible compile, so every
  // callback moves by memcpy and has nothing to destroy.
  int x = 0;
  double d = 0.0;
  auto pointers = [&x, &d] { x = static_cast<int>(d); };
  static_assert(InlineCallback::accepts<decltype(pointers)>());

  auto function = [fn = std::function<void()>()] { fn(); };
  static_assert(!InlineCallback::accepts<decltype(function)>());
  static_assert(!InlineCallback::accepts<std::function<void()>>());

  auto unique = [p = std::make_unique<int>(1)] { (void)p; };
  static_assert(!InlineCallback::accepts<decltype(unique)>());

  struct Bytes33 {
    unsigned char bytes[InlineCallback::kInlineSize + 1];
  };
  auto oversized = [b = Bytes33{}] { (void)b; };
  static_assert(sizeof(oversized) == InlineCallback::kInlineSize + 1);
  static_assert(std::is_trivially_copyable_v<decltype(oversized)>);
  static_assert(!InlineCallback::accepts<decltype(oversized)>());
  SUCCEED();
}

}  // namespace
}  // namespace adattl::sim
