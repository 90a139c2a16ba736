#pragma once

/// \file cell_array.h
/// CellArray: the immutable, refcounted array type of a BlockState's
/// per-cell columns. Its bytes have one of two owners:
///
///   - a heap vector (the build, coarsening and update-commit paths), which
///     the array owns through the vector's own control block, so a retired
///     version's arrays can hand their buffers to the next commit
///     (TakeVector);
///   - the bytes a state was decoded from (a BlockSet's file mapping, or a
///     read buffer), which the array keeps alive through an aliasing
///     shared_ptr to their owner. Decoding such a payload copies no array.
///
/// Readers see only a pointer and a size, whatever the owner.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace geoblocks::core {

/// True iff `p` is the only reference to its object, with acquire
/// ordering: use_count() alone is a relaxed load, which does not order the
/// other holders' last reads (a reader dropping its StateSnapshot pin)
/// before the caller reuses the object. Copying `p` increments the same
/// counter with an acq_rel RMW, which synchronizes with every earlier
/// holder's release decrement.
template <typename T>
bool SoleOwner(const std::shared_ptr<T>& p) {
  if (p.use_count() != 1) return false;
  const std::shared_ptr<T> sync = p;
  return true;
}

/// An immutable array of `T` kept alive by a shared owner. Copies share
/// the bytes. Empty arrays hold no owner and a null data pointer.
template <typename T>
class CellArray {
 public:
  using value_type = T;
  using const_iterator = const T*;
  using iterator = const T*;

  CellArray() = default;

  /// An array that owns a heap vector.
  explicit CellArray(std::shared_ptr<std::vector<T>> vec)
      : size_(vec->size()), vec_(vec.get()) {
    const T* p = vec->data();
    data_ = std::shared_ptr<const T>(std::move(vec), p);
  }

  /// An array that owns `values`.
  explicit CellArray(std::vector<T> values)
      : CellArray(std::make_shared<std::vector<T>>(std::move(values))) {}

  /// A view of `size` elements at `data`, which `owner` keeps alive.
  /// `data` must be aligned for T.
  CellArray(std::shared_ptr<const void> owner, const T* data, size_t size)
      : data_(std::move(owner), data), size_(size) {}

  const T* data() const { return data_.get(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_.get()[i]; }
  const T* begin() const { return data_.get(); }
  const T* end() const { return data_.get() + size_; }
  const T& front() const { return data_.get()[0]; }
  const T& back() const { return data_.get()[size_ - 1]; }
  std::span<const T> span() const { return {data_.get(), size_}; }

  /// @return True when the bytes live in a heap vector this array owns;
  ///     false for a view of decoded bytes and for a default-constructed
  ///     array.
  bool owned() const { return vec_ != nullptr; }

  /// The heap vector behind this array when this array is its only
  /// reference (a retired version's private array: its buffer and control
  /// block are reused), else a fresh vector. Its contents are unspecified.
  /// Leaves this array empty.
  std::shared_ptr<std::vector<T>> TakeVector() {
    std::shared_ptr<std::vector<T>> out;
    if (vec_ != nullptr && SoleOwner(data_)) {
      out = std::shared_ptr<std::vector<T>>(std::move(data_), vec_);
    } else {
      out = std::make_shared<std::vector<T>>();
    }
    *this = CellArray();
    return out;
  }

  friend bool operator==(const CellArray& a, const CellArray& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::shared_ptr<const T> data_;
  size_t size_ = 0;
  /// The owned heap vector, or null for a view.
  std::vector<T>* vec_ = nullptr;
};

}  // namespace geoblocks::core
