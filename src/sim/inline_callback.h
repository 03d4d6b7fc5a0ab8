#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace adattl::sim {

/// Small-buffer, move-only `void()` callable — the event kernel's
/// replacement for `std::function<void()>`.
///
/// Every callback the simulation schedules (client think-time
/// continuations, server completions, monitor ticks, TTL expirations,
/// redirected page deliveries) captures pointers and values only, at most
/// 32 bytes of them — the largest are `[t, shift]` and `[t, ev]` for rate
/// changes and MRL's `[this, i, rate, expiry]`. So the capture always
/// lives in the inline buffer, and scheduling performs **zero heap
/// allocations**. The constructor static-asserts that rule (`accepts<F>()`)
/// at every call site: a capture that grows past the buffer, or that gains
/// a member with a non-trivial copy or destructor (a `std::function`, a
/// `unique_ptr`), does not compile. An event that needs more state parks it
/// with its owner and captures `this` (the redirecting dispatcher keeps its
/// delayed pages in a FIFO).
///
/// Layout: the 32-byte buffer, then `invoke_`, 40 bytes in all. Moving a
/// callback is a 32-byte `memcpy` plus one pointer copy, destroying it is
/// nothing, and calling it is one load and a jump.
class InlineCallback {
 public:
  /// Inline capture budget in bytes: four 8-byte words, the largest
  /// closures the kernel schedules. With `invoke_` a callback is 40 bytes,
  /// so an event-queue slot (callback, seq, generation) fits one 64-byte
  /// line.
  static constexpr std::size_t kInlineSize = 32;
  /// Pointers and doubles are all the kernel captures.
  static constexpr std::size_t kInlineAlign = alignof(double);

  /// True if a callable of type F can be held: it fits the buffer and is
  /// trivially copyable and trivially destructible, so it moves by `memcpy`
  /// and has nothing to destroy.
  template <typename F>
  static constexpr bool accepts() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
  }

  InlineCallback() noexcept : storage_{} {}
  InlineCallback(std::nullptr_t) noexcept : storage_{} {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) : storage_{} {  // NOLINT(google-explicit-constructor)
    static_assert(accepts<F>(),
                  "callback capture must fit InlineCallback's 32-byte buffer and be trivially "
                  "copyable and destructible; capture pointers and values only, or shrink the "
                  "capture");
    using D = std::decay_t<F>;
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = &invoke<D>;
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  /// Drops the held callable (if any) and becomes empty.
  void reset() noexcept { invoke_ = nullptr; }

  /// Invokes the held callable. Precondition: non-empty.
  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  using Invoke = void (*)(void*);

  template <typename D>
  static void invoke(void* p) {
    (*static_cast<D*>(p))();
  }

  /// Takes `other`'s callable byte for byte, leaving `other` empty.
  void take(InlineCallback& other) noexcept {
    std::memcpy(storage_, other.storage_, kInlineSize);
    invoke_ = other.invoke_;
    other.invoke_ = nullptr;
  }

  // Zeroed by every constructor but the move constructor, where take()
  // writes it, so moving an empty callback copies no indeterminate bytes.
  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  Invoke invoke_ = nullptr;
};

static_assert(sizeof(InlineCallback) == 40, "buffer plus invoke_");

}  // namespace adattl::sim
