// Move-only, small-buffer-optimized event closure.
//
// Simulator events used to box their closures in std::function, which
// (a) heap-allocates for any capture larger than the implementation's
// tiny buffer — a captured packet payload always overflows it — and
// (b) requires copyable callables. InplaceHandler stores closures up to
// kInlineSize bytes inside the handler object itself (the common
// "deliver this packet at time t" capture: an object pointer, a port, a
// moved Bytes), falling back to a single heap box only for oversized
// captures. The simulator keeps pending handlers in a reused slab and
// sifts only small {time, order, key, slot} entries, so a handler is
// relocated once into its slot and once out when it fires.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace p4auth::netsim {

class InplaceHandler {
 public:
  /// Inline capture budget. 64 bytes fits `this` + a moved
  /// std::vector + a couple of ids with room to spare; measured against
  /// the delivery closures in network.cpp / switch.cpp.
  static constexpr std::size_t kInlineSize = 64;

  InplaceHandler() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceHandler>>>
  InplaceHandler(F&& fn) {  // NOLINT(google-explicit-constructor) — mirrors std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &inline_vtable<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &boxed_vtable<D>;
    }
  }

  InplaceHandler(InplaceHandler&& other) noexcept { move_from(std::move(other)); }

  InplaceHandler& operator=(InplaceHandler&& other) noexcept {
    if (this == &other) return *this;
    destroy();
    move_from(std::move(other));
    return *this;
  }

  InplaceHandler(const InplaceHandler&) = delete;
  InplaceHandler& operator=(const InplaceHandler&) = delete;

  ~InplaceHandler() { destroy(); }

  void operator()() { vtable_->invoke(storage_); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when the closure overflowed the inline buffer (test hook).
  bool heap_allocated() const noexcept { return vtable_ != nullptr && vtable_->boxed; }

  /// Whether a callable of type D would be stored inline.
  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  ///< move-construct dst, destroy src
    void (*destroy)(void*) noexcept;
    bool boxed;
  };

  template <typename D>
  static constexpr VTable inline_vtable{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* src, void* dst) noexcept {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); },
      /*boxed=*/false,
  };

  template <typename D>
  static constexpr VTable boxed_vtable{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* src, void* dst) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
      /*boxed=*/true,
  };

  void move_from(InplaceHandler&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
  }

  void destroy() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace p4auth::netsim
