#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace adattl::sim {

/// Small-buffer-optimized, move-only `void()` callable — the event kernel's
/// replacement for `std::function<void()>`.
///
/// Every callback the simulation core schedules (client think-time
/// continuations, server completions, monitor ticks, TTL expirations,
/// redirected page deliveries) fits in the inline buffer, so steady-state
/// event scheduling performs **zero heap allocations**. The buffer is sized
/// for the largest kernel captures — `[t, shift]` and `[t, ev]` for rate
/// changes and MRL's `[this, i, rate, expiry]` — and kernel call sites pin
/// that invariant with `assert_inline()` static asserts. A kernel event
/// that needs more state parks it with its owner and captures `this` (the
/// redirecting dispatcher keeps its delayed pages in a FIFO). Oversized
/// *user* callbacks still work: they fall back to a heap box, they just are
/// not allocation-free.
///
/// Layout: the 32-byte buffer, then `invoke_` (calls the capture) and
/// `manage_` (relocates or destroys it), 48 bytes in all. `manage_` is null
/// for a trivial capture (inline, trivially copyable and trivially
/// destructible — every kernel capture): moving it is a 32-byte `memcpy`
/// plus two pointer copies, destroying it is one null test, and calling it
/// is one load and a jump. Other captures (a `std::function`, a
/// `unique_ptr`, a heap box) go through `manage_`.
class InlineCallback {
 public:
  /// Inline capture budget in bytes: four 8-byte words, the largest
  /// closures the kernel schedules. With the two function pointers a
  /// callback is 48 bytes, so an event-queue slot (callback, seq,
  /// generation) fills one 64-byte line.
  static constexpr std::size_t kInlineSize = 32;
  /// Pointers and doubles are all the kernel captures; a more strictly
  /// aligned capture is boxed.
  static constexpr std::size_t kInlineAlign = alignof(double);

  /// True if a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// True if a callable of type F is stored inline and needs no `manage_`:
  /// it moves by `memcpy` and has nothing to destroy.
  template <typename F>
  static constexpr bool trivial_inline() {
    using D = std::decay_t<F>;
    return fits_inline<F>() && std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

  InlineCallback() noexcept : storage_{} {}
  InlineCallback(std::nullptr_t) noexcept : storage_{} {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) : storage_{} {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      if constexpr (!trivial_inline<F>()) manage_ = &manage_inline<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_boxed<D>;
      manage_ = &manage_boxed<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { take(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroys the held callable (if any) and becomes empty.
  void reset() noexcept {
    if (manage_) manage_(nullptr, storage_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Invokes the held callable. Precondition: non-empty.
  void operator()() { invoke_(storage_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  using Invoke = void (*)(void*);
  /// Relocates the capture at `src` to `dst` (move, then destroy `src`),
  /// or destroys it when `dst` is null.
  using Manage = void (*)(void* dst, void* src) noexcept;

  template <typename D>
  static void invoke_inline(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void invoke_boxed(void* p) {
    (**static_cast<D**>(p))();
  }
  template <typename D>
  static void manage_inline(void* dst, void* src) noexcept {
    if (dst) ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }
  template <typename D>
  static void manage_boxed(void* dst, void* src) noexcept {
    if (dst) {
      std::memcpy(dst, src, sizeof(D*));  // move the box pointer
    } else {
      delete *static_cast<D**>(src);
    }
  }

  /// Takes `other`'s callable, leaving `other` empty. Precondition: this
  /// callback is empty. A trivial capture, or none, is copied byte for byte.
  void take(InlineCallback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_) {
      manage_(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // Zeroed by every constructor but the move constructor, where take()
  // writes it, so moving an empty or trivial callback copies no
  // indeterminate bytes.
  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

static_assert(sizeof(InlineCallback) == 48, "buffer plus invoke_ and manage_");

/// Pass-through that static-asserts a callback stays in InlineCallback's
/// buffer and on its trivial path. Kernel hot paths wrap their lambdas with
/// this, so a capture that grows past the inline budget, or that gains a
/// member with a non-trivial copy or destructor, is a compile error rather
/// than a silent per-event heap allocation or `manage_` call.
template <typename F>
constexpr F&& assert_inline(F&& f) noexcept {
  static_assert(InlineCallback::fits_inline<F>(),
                "kernel callback capture spills InlineCallback's inline buffer; "
                "shrink the capture or grow kInlineSize");
  static_assert(InlineCallback::trivial_inline<F>(),
                "kernel callback capture is not trivially copyable and destructible; "
                "capture pointers and values only");
  return std::forward<F>(f);
}

}  // namespace adattl::sim
