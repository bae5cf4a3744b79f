// Many FIFO lists sharing one slot pool, for the per-destination node queues.
//
// A node keeps one queue per peer for each of its VQ, FQ and
// retransmission roles and its LOCAL index, so a 128-rack network holds
// ~65 k of them, almost all empty at any instant. Giving each queue its own
// buffer spreads a few live cells over megabytes of mostly-empty storage.
// PooledQueues threads all of one node's lists of a kind through a single
// slot vector instead: a list is a {head, tail, size} header, each slot
// links to the next slot of its list, and popped slots go onto a LIFO free
// list. The pool holds at most as many slots as it has ever held live
// entries at once, and a push reuses the most recently freed slot, which is
// still in cache.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sirius::node {

template <typename T>
class PooledQueues {
 public:
  explicit PooledQueues(std::size_t lists = 0) : lists_(lists) {}

  /// Number of lists.
  [[nodiscard]] std::size_t lists() const { return lists_.size(); }
  /// Slots the pool holds, live or free: its peak live entry count.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  [[nodiscard]] bool empty(std::size_t l) const { return lists_[l].size == 0; }
  [[nodiscard]] std::size_t size(std::size_t l) const {
    return lists_[l].size;
  }
  [[nodiscard]] const T& front(std::size_t l) const {
    assert(lists_[l].size > 0);
    return slots_[lists_[l].head].value;
  }

  /// Calls `f(v)` for each element of list `l`, front to back.
  template <typename F>
  void for_each(std::size_t l, F&& f) const {
    std::uint32_t s = lists_[l].head;
    for (std::uint32_t i = 0; i < lists_[l].size; ++i) {
      f(slots_[s].value);
      s = slots_[s].next;
    }
  }

  void push(std::size_t l, const T& v) {
    std::uint32_t s = free_;
    if (s != kNil) {
      free_ = slots_[s].next;
      slots_[s].value = v;
      slots_[s].next = kNil;  // after `value`, which may overlap its padding
    } else {
      assert(slots_.size() < kNil);
      s = static_cast<std::uint32_t>(slots_.size());
      // The pool grows only when its live entries pass their previous
      // peak, by amortized doubling; steady-state push/pop never allocates.
      slots_.push_back({{v, kNil}});
    }
    List& q = lists_[l];
    if (q.size == 0) {
      q.head = s;
    } else {
      slots_[q.tail].next = s;
    }
    q.tail = s;
    ++q.size;
  }

  void pop(std::size_t l) {
    List& q = lists_[l];
    assert(q.size > 0);
    const std::uint32_t s = q.head;
    q.head = slots_[s].next;
    --q.size;
    slots_[s].next = free_;
    free_ = s;
  }

  /// Moves the front element to the back, relinking its slot.
  void rotate(std::size_t l) {
    List& q = lists_[l];
    assert(q.size > 0);
    if (q.size == 1) return;
    const std::uint32_t s = q.head;
    q.head = slots_[s].next;
    slots_[q.tail].next = s;
    slots_[s].next = kNil;
    q.tail = s;
  }

  /// Empties list `l`, handing all its slots to the free list at once.
  void clear(std::size_t l) {
    List& q = lists_[l];
    if (q.size == 0) return;
    slots_[q.tail].next = free_;
    free_ = q.head;
    q.size = 0;
  }

  /// Empties every list and drops every slot, keeping the storage
  /// (checkpoint restore refills the pool from its first slot).
  void reset() {
    for (List& q : lists_) q.size = 0;
    slots_.clear();
    free_ = kNil;
  }

  /// Makes room for `n` slots, so refilling the pool after reset() grows
  /// its storage at most once.
  void reserve(std::size_t n) { slots_.reserve(n); }

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  // `next` may sit in T's tail padding, and a slot whose size is a power
  // of two up to a cache line is aligned to its size: a Cell slot takes 32
  // bytes and never straddles two cache lines.
  struct Packed {
    [[no_unique_address]] T value;
    std::uint32_t next;
  };
  static constexpr std::size_t kSlotAlign =
      std::has_single_bit(sizeof(Packed)) && sizeof(Packed) <= 64
          ? sizeof(Packed)
          : alignof(Packed);
  struct alignas(kSlotAlign) Slot : Packed {};
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };

  std::vector<Slot> slots_;
  std::vector<List> lists_;
  std::uint32_t free_ = kNil;  // most recently freed slot
};

}  // namespace sirius::node
