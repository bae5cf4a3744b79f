// A small FIFO ring buffer for the per-destination node queues.
//
// A node keeps one queue per destination for each of its VQ, FQ and
// retransmission roles and its LOCAL index, so a 128-rack network holds
// ~65 k of them, almost all empty at any instant: an empty queue must not
// cost heap memory. FifoRing costs 32 bytes until its first push, then
// holds its elements in one power-of-two array that doubles when full —
// so once a queue has seen its peak depth, push and pop never allocate.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hot_path.hpp"

namespace sirius::node {

template <typename T>
class FifoRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }
  /// The `i`-th element in FIFO order (0 = front).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & mask()];
  }

  SIRIUS_HOT void push(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = v;
    ++size_;
  }
  SIRIUS_HOT void pop() {
    assert(size_ > 0);
    head_ = static_cast<std::uint32_t>((head_ + 1) & mask());
    --size_;
  }
  /// Moves the front element to the back: a pop + push that can never
  /// allocate (the round-robin rotations use it).
  SIRIUS_HOT void rotate() {
    assert(size_ > 0);
    const std::size_t tail = (head_ + size_) & mask();
    buf_[tail] = buf_[head_];
    head_ = static_cast<std::uint32_t>((head_ + 1) & mask());
  }
  /// Empties the ring but keeps its storage for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  /// Makes room for `n` elements in one allocation, at the capacity that
  /// doubling would reach while pushing them (checkpoint restore knows each
  /// queue's depth up front).
  void reserve(std::size_t n) {
    if (n <= buf_.size()) return;
    std::size_t cap = buf_.empty() ? kFirstCapacity : buf_.size();
    while (cap < n) cap *= 2;
    relocate(cap);
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  [[nodiscard]] std::size_t mask() const { return buf_.size() - 1; }

  // Doubling keeps capacity a power of two, so the index wrap is a mask.
  void grow() { relocate(buf_.empty() ? kFirstCapacity : 2 * buf_.size()); }

  // Moves the contents into `cap` slots, unrolled into FIFO order at the
  // front.
  void relocate(std::size_t cap) {
    std::vector<T> next;
    // Growth runs only when a queue exceeds its previous peak depth, a
    // bounded number of doublings per queue over a whole run.
    // sirius-lint: allow(hot-path-alloc)
    next.resize(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace sirius::node
