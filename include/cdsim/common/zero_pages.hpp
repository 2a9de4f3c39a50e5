#pragma once
// Fixed-length array of trivially copyable records backed by an anonymous
// zero-page mapping.
//
// ZeroPageArray<T> owns one private anonymous mmap of n * sizeof(T) bytes.
// The kernel backs such a mapping with the shared zero page and commits a
// private page only when something first writes into it, so the array
// costs host memory in proportion to the pages a run writes, not to its
// length. Every element reads as all-zero bytes until it is written, so
// zero bytes must be the record's default state, and T must be trivially
// copyable and trivially destructible: no constructor or destructor ever
// runs on the elements.
//
// The storage never moves, so element addresses are stable for the life
// of the array. Move-only; the destructor unmaps. operator[] is
// bounds-checked under _GLIBCXX_ASSERTIONS, as std::vector's is.

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "cdsim/common/assert.hpp"

namespace cdsim {

template <typename T>
class ZeroPageArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroPageArray<T>: elements start as zero bytes and are "
                "never constructed or destroyed");

 public:
  ZeroPageArray() = default;

  /// Maps `n` zero elements; throws std::bad_alloc when the mapping fails.
  explicit ZeroPageArray(std::size_t n) : size_(n) {
    if (n == 0) return;
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }

  ZeroPageArray(ZeroPageArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  ZeroPageArray& operator=(ZeroPageArray&& o) noexcept {
    if (this != &o) {
      unmap();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ZeroPageArray(const ZeroPageArray&) = delete;
  ZeroPageArray& operator=(const ZeroPageArray&) = delete;
  ~ZeroPageArray() { unmap(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
#ifdef _GLIBCXX_ASSERTIONS
    CDSIM_ASSERT_MSG(i < size_, "ZeroPageArray index out of range");
#endif
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
#ifdef _GLIBCXX_ASSERTIONS
    CDSIM_ASSERT_MSG(i < size_, "ZeroPageArray index out of range");
#endif
    return data_[i];
  }

 private:
  [[nodiscard]] std::size_t bytes() const noexcept {
    return size_ * sizeof(T);
  }
  void unmap() noexcept {
    if (data_ != nullptr) ::munmap(data_, bytes());
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cdsim
