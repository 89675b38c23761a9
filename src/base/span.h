#ifndef TBC_BASE_SPAN_H_
#define TBC_BASE_SPAN_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "base/check.h"

namespace tbc {

/// A non-owning view of a contiguous array (the subset of std::span the
/// library needs, with bounds-checked element access in debug builds).
///
/// Introduced for NnfManager::children(): node child lists may live either
/// in the manager's own child arena or directly inside a memory-mapped
/// circuit store (src/store/), and a span serves both without copying.
/// Spans never own: the viewed memory must outlive the span.
template <typename T>
class Span {
 public:
  /// Element type with cv-qualifiers stripped (Span<const T> views
  /// vector<T>, not the ill-formed vector<const T>).
  using value_type = std::remove_cv_t<T>;

  Span() = default;
  Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Implicit view of a vector (mirrors std::span's container constructor).
  Span(const std::vector<value_type>& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  const T& operator[](size_t i) const {
    TBC_DCHECK(i < size_);
    return data_[i];
  }
  const T& front() const {
    TBC_DCHECK(size_ > 0);
    return data_[0];
  }
  const T& back() const {
    TBC_DCHECK(size_ > 0);
    return data_[size_ - 1];
  }

  friend bool operator==(Span a, Span b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }
  friend bool operator!=(Span a, Span b) { return !(a == b); }

  /// Materializes the view (for callers that must outlive a mutation).
  std::vector<value_type> ToVector() const {
    return std::vector<value_type>(begin(), end());
  }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace tbc

#endif  // TBC_BASE_SPAN_H_
