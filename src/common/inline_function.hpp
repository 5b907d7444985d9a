// Move-only type-erased callable with fixed inline capture storage.
//
// The simulation kernel schedules tens of millions of events per second,
// and every memory operation carries a completion callback through the
// cache hierarchy and a coherence controller. Nearly every such capture is
// larger than the ~16 bytes a libstdc++ std::function keeps inline, so a
// std::function heap-allocates on almost every schedule() and every cache
// access — and copies re-allocate. InlineFunction is the one replacement
// for both: captures live directly inside the object (and therefore inside
// the slab Event node, or inside the capture of the event that carries a
// completion), there is no heap path at all, and a capture that outgrows
// the budget is a compile error at the construction site rather than a
// silent allocation.
//
//   InlineFunction<void(), 96>                     Simulator::Action
//   InlineFunction<void(const CacheOpResult&), 24> CacheOpCallback
//
// Differences from std::function, all deliberate:
//   - move-only (captures own pooled handles and moved-in callbacks);
//   - invoking an empty function is a programming error (asserted), not a
//     throw;
//   - the stored callable must be nothrow-move-constructible, because the
//     kernel relocates actions between the event node and the dispatch
//     frame, and the coherence queues relocate completions.
//
// sizeof(InlineFunction<Sig, N>) == N + sizeof(void*): one pointer to a
// per-callable-type operations table, then the capture bytes.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace dvmc {

template <class Signature, std::size_t Capacity>
class InlineFunction;

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "InlineFunction capture exceeds the inline capacity budget "
                  "— shrink the capture (pool large payloads) or raise the "
                  "capacity at the owning declaration");
    static_assert(alignof(Fn) <= alignof(void*),
                  "InlineFunction capture is over-aligned: storage is "
                  "pointer-aligned so the function packs tightly into slab "
                  "event nodes");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction requires nothrow-move-constructible "
                  "captures");
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "InlineFunction callable does not match the signature");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &kOpsFor<Fn>;
  }

  InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Destroys the stored callable (if any); the function becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    DVMC_ASSERT(ops_ != nullptr, "invoking an empty InlineFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Move-constructs into `dst` and destroys `src` in one step: the only
    // relocation callers need, and it keeps the table to three entries.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOpsFor = {
      [](void* p, Args&&... args) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        Fn* f = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  void moveFrom(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[Capacity];
};

}  // namespace dvmc
