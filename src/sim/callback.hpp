// A move-only `void()` callable for simulator events. Captures of up to
// kInlineBytes live inside the object, so the timer and delivery
// lambdas the simulator runs millions of times never touch the heap;
// larger (or over-aligned, or throwing-move) captures are boxed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lidc::sim {

class Callback {
 public:
  /// Room for a `this` pointer plus a few handles, names or a
  /// std::function. Every event slot carries this much, so it is kept
  /// small: a packet-carrying delivery closure is boxed instead.
  static constexpr std::size_t kInlineBytes = 64;

  Callback() noexcept = default;

  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                     std::is_invocable_r_v<void, Fn&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): lambdas convert implicitly.
  Callback(F&& fn) {
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kBoxedOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  /// Destroys the captures; the callback becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(storage_);
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `dst` and destroys the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  static constexpr std::size_t kAlign = alignof(void*);

  template <class Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= kAlign &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  /// The object placement-new put into the storage at `p`.
  template <class T>
  static T* object(void* p) noexcept {
    return std::launder(static_cast<T*>(p));
  }

  template <class Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*object<Fn>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*object<Fn>(src)));
        object<Fn>(src)->~Fn();
      },
      [](void* p) noexcept { object<Fn>(p)->~Fn(); },
  };

  template <class Fn>
  static constexpr Ops kBoxedOps = {
      [](void* p) { (**object<Fn*>(p))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*object<Fn*>(src)); },
      [](void* p) noexcept { delete *object<Fn*>(p); },
  };

  alignas(kAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lidc::sim
