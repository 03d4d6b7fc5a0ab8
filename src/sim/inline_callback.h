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
/// Moves are destructive relocations (move-construct + destroy source);
/// trivially copyable captures relocate via `memcpy`, which is what the
/// event queue relies on when it moves a firing callback out of its slot.
class InlineCallback {
 public:
  /// Inline capture budget in bytes: four 8-byte words, the largest
  /// closures the kernel schedules. With the ops pointer a callback is 40
  /// bytes, so an event-queue slot (callback, seq, generation) is 56 and
  /// fits one cache line.
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

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kOps<D, /*inline=*/true>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kOps<D, /*inline=*/false>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_) {
        ops_ = other.ops_;
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroys the held callable (if any) and becomes empty.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Invokes the held callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D, bool Inline>
  struct OpsImpl {
    static void invoke(void* p) {
      if constexpr (Inline) {
        (*static_cast<D*>(p))();
      } else {
        (**static_cast<D**>(p))();
      }
    }
    static void relocate(void* dst, void* src) noexcept {
      if constexpr (!Inline) {
        std::memcpy(dst, src, sizeof(D*));  // move the box pointer
      } else if constexpr (std::is_trivially_copyable_v<D> &&
                           std::is_trivially_destructible_v<D>) {
        std::memcpy(dst, src, sizeof(D));
      } else {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      }
    }
    static void destroy(void* p) noexcept {
      if constexpr (Inline) {
        static_cast<D*>(p)->~D();
      } else {
        delete *static_cast<D**>(p);
      }
    }
  };

  template <typename D, bool Inline>
  static constexpr Ops kOps{&OpsImpl<D, Inline>::invoke, &OpsImpl<D, Inline>::relocate,
                            &OpsImpl<D, Inline>::destroy};

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Pass-through that static-asserts a callback stays in InlineCallback's
/// SBO buffer. Kernel hot paths wrap their lambdas with this so a capture
/// growing past the inline budget is a compile error, not a silent
/// per-event heap allocation.
template <typename F>
constexpr F&& assert_inline(F&& f) noexcept {
  static_assert(InlineCallback::fits_inline<F>(),
                "kernel callback capture spills InlineCallback's inline buffer; "
                "shrink the capture or grow kInlineSize");
  return std::forward<F>(f);
}

}  // namespace adattl::sim
