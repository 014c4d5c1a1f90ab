#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

/// \file small_function.hpp
/// A move-only, small-buffer-optimized callable — the hot-path replacement
/// for `std::function<void()>` in the simulator core (ROADMAP "make the
/// simulator core fast"). Two properties matter there:
///
///  * **Zero steady-state heap traffic.** Captures up to `Capacity` bytes
///    live inline in the object; larger captures are carved from a
///    size-classed free-list pool (`sf_detail::OverflowPool`) that recycles
///    blocks instead of returning them to the allocator, so after warm-up
///    neither path calls `operator new` per event. A CS@100 run schedules
///    ~2M events; with `std::function` each large capture was one malloc +
///    one free on the simulator's hottest path.
///
///  * **Deterministic, simulation-independent behavior.** The pool hands
///    out blocks in LIFO order off plain singly-linked free lists; no
///    addresses, sizes or pool state ever feed back into simulation
///    decisions, so recycling cannot perturb a run (the golden-digest gates
///    prove it).
///
/// Deliberately NOT provided: copying (events fire once; the queue only
/// moves), allocator awareness, and target-type introspection. `operator
/// bool` and implicit construction from any callable mirror the
/// `std::function` surface our call sites actually used.

namespace rtdb::common {

namespace sf_detail {

/// Size-classed LIFO free-list pool for captures that exceed the inline
/// buffer. Blocks are recycled forever (freed to the class list, never to
/// the system); totals are tiny — the steady-state block count equals the
/// peak number of simultaneously-live oversized captures, a few hundred in
/// the largest run. Single-threaded by design, like the simulator itself.
class OverflowPool {
 public:
  static OverflowPool& instance() {
    // rtdb-lint: allow(mutable-static) single-threaded simulator-core pool; recycles callback blocks, never feeds state back into simulation
    static OverflowPool pool;
    return pool;
  }

  void* acquire(std::size_t bytes) {
    const int cls = class_of(bytes);
    if (cls < 0) return ::operator new(bytes);
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      return node;
    }
    return ::operator new(kClassBytes[cls]);
  }

  void release(void* p, std::size_t bytes) noexcept {
    const int cls = class_of(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::size_t kClassBytes[] = {64, 128, 256, 512, 1024};
  static constexpr int kClassCount =
      static_cast<int>(sizeof(kClassBytes) / sizeof(kClassBytes[0]));

  static int class_of(std::size_t bytes) {
    for (int i = 0; i < kClassCount; ++i) {
      if (bytes <= kClassBytes[i]) return i;
    }
    return -1;  // oversized: fall through to the allocator
  }

  FreeNode* free_[kClassCount] = {};
};

}  // namespace sf_detail

/// Default inline-capture capacity: fits `[this]` plus a handful of ids,
/// times and doubles — the shape of nearly every callback the simulator
/// schedules.
inline constexpr std::size_t kSmallFunctionCapacity = 48;

template <class Signature, std::size_t Capacity = kSmallFunctionCapacity>
class SmallFunction;

template <class R, class... Args, std::size_t Capacity>
class SmallFunction<R(Args...), Capacity> {
 public:
  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Wraps any callable; implicit like std::function so lambda-passing call
  /// sites compile unchanged.
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction& operator=(F&& f) {
    reset();
    init(std::forward<F>(f));
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  /// Destroys the target (returning any overflow block to the pool) and
  /// becomes empty. A trivial inline target has nothing to destroy.
  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, obj_, nullptr);
    obj_ = nullptr;
    call_ = nullptr;
    manage_ = nullptr;
  }

  /// True when the target lives in the inline buffer (test seam: proves a
  /// given capture shape is allocation-free).
  [[nodiscard]] bool is_inline() const {
    return obj_ == static_cast<const void*>(buf_);
  }

  /// True when the target is inline and trivially copyable: moves copy the
  /// buffer and destruction is a no-op (test seam).
  [[nodiscard]] bool is_trivial() const {
    return call_ != nullptr && manage_ == nullptr;
  }

 private:
  enum class Op : unsigned char { kDestroy, kMoveDestroy };

  using Call = R (*)(void*, Args&&...);
  /// kDestroy: destroy target at obj (freeing its overflow block).
  /// kMoveDestroy: move target from obj into dst (dst->obj_ set), then
  /// destroy the source target.
  using Manage = void (*)(Op, void* obj, SmallFunction* dst);

  template <class F>
  void init(F&& f) {
    using D = std::decay_t<F>;
    constexpr bool kInline = sizeof(D) <= Capacity &&
                             alignof(D) <= alignof(std::max_align_t) &&
                             std::is_nothrow_move_constructible_v<D>;
    if constexpr (kInline) {
      obj_ = ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      void* block = sf_detail::OverflowPool::instance().acquire(sizeof(D));
      obj_ = ::new (block) D(std::forward<F>(f));
    }
    call_ = [](void* obj, Args&&... args) -> R {
      return (*static_cast<D*>(obj))(std::forward<Args>(args)...);
    };
    // A trivially copyable inline capture (ids, times, `this`) needs no
    // manager: moving it is a copy of the buffer and destroying it is a
    // no-op, so neither costs an indirect call.
    if constexpr (kInline && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      manage_ = nullptr;
      trivial_bytes_ = std::is_empty_v<D> ? 0 : sizeof(D);
    } else {
      manage_ = &manage_impl<D, kInline>;
    }
  }

  template <class D, bool Inline>
  static void manage_impl(Op op, void* obj, SmallFunction* dst) {
    D* target = static_cast<D*>(obj);
    if (op == Op::kDestroy) {
      target->~D();
      if constexpr (!Inline) {
        sf_detail::OverflowPool::instance().release(obj, sizeof(D));
      }
      return;
    }
    // kMoveDestroy
    if constexpr (Inline) {
      dst->obj_ = ::new (static_cast<void*>(dst->buf_)) D(std::move(*target));
      target->~D();
    } else {
      dst->obj_ = obj;  // steal the pooled block wholesale
    }
  }

  void move_from(SmallFunction& other) noexcept {
    if (other.call_ == nullptr) return;
    if (other.manage_ == nullptr) {
      std::memcpy(buf_, other.buf_, other.trivial_bytes_);
      trivial_bytes_ = other.trivial_bytes_;
      obj_ = buf_;
    } else {
      other.manage_(Op::kMoveDestroy, other.obj_, this);
    }
    call_ = other.call_;
    manage_ = other.manage_;
    other.obj_ = nullptr;
    other.call_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  void* obj_ = nullptr;
  Call call_ = nullptr;
  Manage manage_ = nullptr;
  /// Size of a trivial inline target (the bytes a move copies).
  std::uint32_t trivial_bytes_ = 0;
};

}  // namespace rtdb::common
