#pragma once

#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include "common/config.hpp"

/// \file aligned.hpp
/// A minimal 64-byte-aligned allocator so matrix columns start on cache-line
/// boundaries (predictable memory access; SIMD-friendly loads), and a variant
/// that leaves value-less constructions unwritten for storage that is filled
/// in full before it is read.

namespace hodlrx {

template <typename T, std::size_t Align = kAlignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new[](n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete[](p, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// AlignedAllocator whose zero-argument construct() default-initializes, so
/// `std::vector::resize(n)` leaves new scalars unwritten, while an explicit
/// value (`assign(n, T{})`, `resize(n, T{})`) still fills. Trivially copyable
/// types (std::complex included) are implicit-lifetime types, which the
/// allocation already created; their default constructor is skipped because
/// std::complex's would zero the storage.
template <typename T, std::size_t Align = kAlignment>
struct DefaultInitAllocator : AlignedAllocator<T, Align> {
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U, Align>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if constexpr (!std::is_trivially_copyable_v<U>)
      ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U, Align>;
  };
};

}  // namespace hodlrx
