#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

/// \file inline_vec.hpp
/// A vector of trivially copyable elements whose first `N` live inside the
/// object, in the bytes a `std::vector` spends on its heap pointer — the
/// per-object holder and recall lists of the lock tables. Those lists hold
/// one or two entries almost always, so the common case needs no heap
/// block at all, and a table of per-object states pays nothing extra for
/// the inline room (24 bytes, like the `std::vector` it replaces, when
/// `N * sizeof(T) <= 16`).
///
/// Element order is insertion order and erase() keeps it (a memmove), so a
/// caller that scans "the first holder" sees exactly what the vector gave.
/// Only the operations the lock tables use are provided.

namespace rtdb::common {

template <class T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVec moves elements with memcpy");
  static_assert(N >= 1, "InlineVec needs inline room for one element");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;
  InlineVec(const InlineVec& other) { assign_from(other); }
  InlineVec(InlineVec&& other) noexcept { steal(other); }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      clear();
      assign_from(other);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~InlineVec() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True while the elements live in the object (no heap block).
  [[nodiscard]] bool is_inline() const { return cap_ == N; }

  T* data() { return is_inline() ? std::launder(inline_ptr()) : heap_; }
  const T* data() const {
    return is_inline() ? std::launder(inline_ptr()) : heap_;
  }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }

  void push_back(const T& value) {
    if (size_ == cap_) grow();
    data()[size_++] = value;
  }

  /// Removes the element at `pos`, keeping the order of the rest.
  iterator erase(const_iterator pos) {
    T* p = data() + (pos - data());
    std::memmove(static_cast<void*>(p), p + 1,
                 (end() - p - 1) * sizeof(T));
    --size_;
    return p;
  }

  /// Empties the list; a heap block (if one was ever needed) is kept.
  void clear() { size_ = 0; }

 private:
  void grow() {
    const std::uint32_t cap = cap_ * 2;
    T* block = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(block), data(), size_ * sizeof(T));
    release();
    heap_ = block;
    cap_ = cap;
  }

  void release() {
    if (!is_inline()) ::operator delete(heap_);
    cap_ = N;
  }

  void assign_from(const InlineVec& other) {
    for (const T& v : other) push_back(v);
  }

  void steal(InlineVec& other) {
    size_ = other.size_;
    if (other.is_inline()) {
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    } else {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.cap_ = N;
    }
    other.size_ = 0;
  }

  T* inline_ptr() { return reinterpret_cast<T*>(inline_); }
  const T* inline_ptr() const { return reinterpret_cast<const T*>(inline_); }

  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace rtdb::common
