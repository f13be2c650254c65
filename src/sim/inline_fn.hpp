#pragma once

// Small-buffer-only type-erased callable for the event hot path.
//
// std::function falls back to the heap when a capture outgrows its SSO
// buffer, which on the event loop means one malloc/free per frame-hop event.
// InlineFn instead makes the capture budget a compile-time contract: a
// callable that does not fit in kInlineFnCapacity bytes is a build error at
// the schedule() call site, never a silent allocation. Events are therefore
// guaranteed allocation-free, and an EventNode (header + InlineFn) packs
// into exactly two cache lines (see sim/event_queue.hpp).

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace meshmp::sim {

/// Capture budget for one event. The largest hot-path capture,
/// [this + net::Frame] (8 + 64 bytes) in the link/NIC/crossbar pumps, must
/// fit; a static_assert in net/frame.hpp pins that. The figure itself comes
/// from the event layout: 88 bytes plus the ops pointer and the 32-byte
/// EventNode header fill exactly two cache lines (pinned in
/// sim/event_queue.hpp), so a smaller budget would save no memory. Raising
/// this grows every queued event, so shrink captures (pointers and indices,
/// not values) before reaching for a bigger budget.
inline constexpr std::size_t kInlineFnCapacity = 88;

/// Type-erased `void()` callable with inline-only storage. Move-only, like
/// the captures it carries (coroutine handles, pooled slices, frames).
class InlineFn {
 public:
  InlineFn() noexcept = default;

  /// Implicit so existing `schedule(d, [=]{...})` call sites read unchanged.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::remove_cvref_t<F>, InlineFn>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineFn");
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the held callable (captures release their resources now).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<F*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) F(std::move(*static_cast<F*>(src)));
      static_cast<F*>(src)->~F();
    }
    static void destroy(void* p) noexcept { static_cast<F*>(p)->~F(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineFn holds void() callables");
    static_assert(sizeof(Fn) <= kInlineFnCapacity,
                  "event capture exceeds the InlineFn budget: capture "
                  "pointers/indices instead of values, or raise "
                  "sim::kInlineFnCapacity deliberately (grows every event)");
    static_assert(alignof(Fn) <= alignof(void*),
                  "InlineFn storage is pointer-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event captures must be nothrow-movable (queue relocation)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) std::byte storage_[kInlineFnCapacity];
};

static_assert(sizeof(InlineFn) == sizeof(void*) + kInlineFnCapacity);

}  // namespace meshmp::sim
