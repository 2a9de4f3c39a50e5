#pragma once
// SmallFn: a move-only std::function replacement for the simulation kernel's
// hot paths.
//
// The discrete-event kernel stores millions of short-lived callbacks (event
// callbacks, MSHR fill waiters, bus transaction hooks). std::function copies
// them freely and heap-allocates any capture list larger than its ~16-byte
// small-buffer — on the hot path that is one malloc/free pair per event.
// SmallFn fixes both costs:
//
//   * move-only: a callback is created once, moved to its resting place, and
//     invoked — never copied, so captures need not be copyable;
//   * configurable inline storage (default 48 bytes): the kernel's capture
//     lists (a `this`, a line address, a response functor) fit inline, so
//     scheduling an event allocates nothing;
//   * heap fallback: oversized or over-aligned callables still work, they
//     just pay the allocation std::function would have paid anyway.
//
// Moves are always noexcept (inline targets must be nothrow-move-
// constructible or they fall back to the heap), which lets containers of
// SmallFn-holding events relocate with memmove-class cost.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "cdsim/common/assert.hpp"

namespace cdsim {

template <typename Signature, std::size_t InlineBytes = 48>
class SmallFn;  // primary template intentionally undefined

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFn<R(Args...), InlineBytes> {
 public:
  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wraps any callable invocable as R(Args...). Intentionally implicit,
  /// mirroring std::function, so lambdas convert at call sites.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Replaces the target with `f`, built directly in this SmallFn's storage
  /// — no temporary SmallFn and no relocation. The old target is destroyed
  /// first. A SmallFn argument is moved in.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, SmallFn>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>,
                    "SmallFn::assign needs a callable matching the signature");
      reset();
      emplace(std::forward<F>(f));
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  /// Invokes the target (const like std::function: the wrapper is const,
  /// the target is logically mutable).
  R operator()(Args... args) const {
    CDSIM_ASSERT_MSG(invoke_ != nullptr, "empty SmallFn invoked");
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// Compile-time check: would callable `F` be stored inline (no heap)?
  /// Used by tests and static_asserts guarding hot-path capture sizes.
  /// (Definition duplicated from kFitsInline below, which must stay in the
  /// private section but cannot be referenced before its declaration.)
  template <typename F>
  static constexpr bool fits_inline_v =
      sizeof(std::remove_cvref_t<F>) <= InlineBytes &&
      alignof(std::remove_cvref_t<F>) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<std::remove_cvref_t<F>>;

 private:
  enum class Op : std::uint8_t { kDestroy, kMoveDestroy };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* other) noexcept;

  // Inline storage is pointer-aligned (not max_align_t): keeping the whole
  // SmallFn 8-byte aligned lets a SmallFn nest inside another callable's
  // inline capture without alignment padding blowing the outer budget.
  // Over-aligned callables take the heap path, which aligns them correctly.
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= InlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineOps {
    static R invoke(void* s, Args&&... args) {
      return (*static_cast<F*>(s))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      switch (op) {
        case Op::kMoveDestroy: {
          F* src = static_cast<F*>(other);
          ::new (self) F(std::move(*src));
          src->~F();
          break;
        }
        case Op::kDestroy:
          static_cast<F*>(self)->~F();
          break;
      }
    }
  };

  template <typename F>
  struct HeapOps {
    static R invoke(void* s, Args&&... args) {
      return (**static_cast<F**>(s))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* other) noexcept {
      switch (op) {
        case Op::kMoveDestroy:
          *static_cast<F**>(self) = *static_cast<F**>(other);
          break;
        case Op::kDestroy:
          delete *static_cast<F**>(self);
          break;
      }
    }
  };

  template <typename F0>
  void emplace(F0&& f) {
    using F = std::remove_cvref_t<F0>;
    if constexpr (kFitsInline<F>) {
      ::new (static_cast<void*>(storage_)) F(std::forward<F0>(f));
      invoke_ = &InlineOps<F>::invoke;
      // Trivially copyable + trivially destructible targets (a captured
      // `this`, addresses, flags — most kernel lambdas) need no manager:
      // moves become a fixed-size memcpy and destruction a no-op, with no
      // indirect call on either. Everything else keeps a manager.
      if constexpr (std::is_trivially_copyable_v<F> &&
                    std::is_trivially_destructible_v<F>) {
        manage_ = nullptr;
      } else {
        manage_ = &InlineOps<F>::manage;
      }
    } else {
      *reinterpret_cast<F**>(static_cast<void*>(storage_)) =
          new F(std::forward<F0>(f));
      invoke_ = &HeapOps<F>::invoke;
      manage_ = &HeapOps<F>::manage;
    }
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Precondition: *this is empty. Leaves `other` empty.
  void move_from(SmallFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMoveDestroy, storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, InlineBytes);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // Zero-initialized so the trivial-relocation memcpy in move_from reads
  // no indeterminate bytes (GCC -Wmaybe-uninitialized stays quiet and the
  // copied tail is well-defined). The memset is a few bytes per
  // construction — noise next to the malloc it replaces.
  alignas(alignof(void*)) mutable std::byte storage_[InlineBytes] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace cdsim
