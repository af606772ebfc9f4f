#ifndef RST_IURTREE_ARENA_ARRAY_H_
#define RST_IURTREE_ARENA_ARRAY_H_

#include <cstddef>
#include <new>
#include <utility>

#include "rst/common/check.h"

namespace rst {

/// Fixed-capacity sequence over caller-provided storage — the entry container
/// of arena-allocated tree nodes. The arena co-allocates the element storage
/// with the node in one cache-line-aligned chunk (see NodeArena), so unlike
/// std::vector there is no separate heap allocation, no capacity growth, and
/// no iterator invalidation short of clear: an element's address is stable
/// for its lifetime.
///
/// Elements are constructed in place on push/emplace and destroyed on
/// clear/destruction; the storage itself is never freed here — it belongs
/// to the arena chunk.
template <typename T>
class ArenaArray {
 public:
  ArenaArray(T* storage, size_t capacity)
      : data_(storage), capacity_(capacity) {}
  ~ArenaArray() { clear(); }

  ArenaArray(const ArenaArray&) = delete;
  ArenaArray& operator=(const ArenaArray&) = delete;

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(T&& value) { emplace_back(std::move(value)); }
  void push_back(const T& value) { emplace_back(value); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    RST_DCHECK_LT(size_, capacity_) << "ArenaArray overflow";
    T* slot = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void clear() {
    while (size_ > 0) data_[--size_].~T();
  }

 private:
  T* data_;
  size_t size_ = 0;
  size_t capacity_;
};

}  // namespace rst

#endif  // RST_IURTREE_ARENA_ARRAY_H_
