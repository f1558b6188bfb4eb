// A first-in first-out queue on one std::vector and a head index — the
// shape of the simulator's per-packet queues (a link's line of in-flight
// packets, TCP push points, DCCP datagrams and CCID-2 send records, the
// blocks of a ByteQueue).
//
// Unlike std::deque, push and pop allocate nothing once the vector has
// grown to the queue's working depth: popped slots stay behind the head
// until the queue empties (then the vector is cleared, keeping its
// capacity) or until they outnumber the live elements (then the live ones
// move down in one pass, so each element moves O(1) times on average).
// A copy holds only the live elements, so a snapshot of a queue is the
// size of its contents.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace snake {

template <typename T>
class Fifo {
 public:
  using value_type = T;
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  Fifo() = default;
  Fifo(const Fifo& other) : items_(other.begin(), other.end()) {}
  Fifo(Fifo&& other) noexcept
      : items_(std::move(other.items_)), head_(std::exchange(other.head_, 0)) {
    other.items_.clear();
  }
  /// Reuses this queue's capacity when it is large enough.
  Fifo& operator=(const Fifo& other) {
    if (this != &other) {
      items_.assign(other.begin(), other.end());
      head_ = 0;
    }
    return *this;
  }
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      items_ = std::move(other.items_);
      head_ = std::exchange(other.head_, 0);
      other.items_.clear();
    }
    return *this;
  }

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  T& back() { return items_.back(); }
  const T& back() const { return items_.back(); }
  T& operator[](std::size_t i) { return items_[head_ + i]; }
  const T& operator[](std::size_t i) const { return items_[head_ + i]; }

  iterator begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  const_iterator end() const { return items_.end(); }

  void push_back(T value) { items_.push_back(std::move(value)); }

  /// Drops the front element; move out of front() first to keep it. Its
  /// slot is reclaimed later, so it must not own anything worth freeing.
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kMinCompaction && head_ >= items_.size() - head_) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
  }

  /// Removes the element at position `i` (0 = front), shifting later ones.
  void erase(std::size_t i) { items_.erase(begin() + static_cast<std::ptrdiff_t>(i)); }

  /// Removes every element for which `drop(element)` is true, keeping the
  /// rest in order; `drop` visits each element once, front to back, and
  /// may update the ones it keeps.
  template <typename Pred>
  void erase_if(Pred drop) {
    iterator kept = begin();
    for (iterator it = begin(); it != end(); ++it) {
      if (drop(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    items_.erase(kept, items_.end());
    if (empty()) clear();
  }

  /// Empties the queue, keeping the vector's capacity.
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  /// Dead slots tolerated before a compaction is worth its moves.
  static constexpr std::size_t kMinCompaction = 16;

  std::vector<T> items_;
  std::size_t head_ = 0;  ///< index of the front element in items_
};

}  // namespace snake
