// Hot-path memory primitives: an in-place small-callback type and a
// recycled byte-buffer pool.
//
// A SNAKE campaign is millions of simulated events; every one of them used
// to cost two shared_ptr control blocks plus (for capture-heavy callbacks) a
// std::function heap allocation, and every packet hop allocated and freed
// its wire buffer. These primitives let the scheduler and the link/stack
// data path run the common schedule/fire/cancel and send/forward/deliver
// cycles without touching the allocator:
//
//  - SmallFunction: a move-only `void()` callable with 64 bytes of inline
//    storage — enough for a lambda capturing a whole sim::Packet — falling
//    back to the heap only for oversized captures.
//  - BufferPool: a free list of Bytes vectors; release() keeps a buffer's
//    capacity warm, acquire() hands it back cleared. Buffers that would
//    grow the free list past its cap are simply freed.
//
// Neither primitive is thread-safe: the simulator is single-threaded per
// scenario and every campaign executor owns its own pools (same ownership
// discipline as obs::MetricsRegistry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace snake {

/// Move-only type-erased `void()` callable with inline storage for small
/// captures. Invoking an empty SmallFunction is undefined; check with
/// operator bool first (the scheduler never stores empty callbacks).
class SmallFunction {
 public:
  /// Sized so a lambda capturing `this` plus one sim::Packet (the link
  /// forwarding callback, the hottest capture in the system) stays inline.
  static constexpr std::size_t kInlineBytes = 64;

  SmallFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFunction>>>
  SmallFunction(F&& fn) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) = new Fn(std::forward<F>(fn));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Whether the held callable can be duplicated with clone(). Empty
  /// SmallFunctions are trivially clonable; callables whose capture is not
  /// copy-constructible (move-only captures) are not.
  bool clonable() const { return ops_ == nullptr || ops_->clone != nullptr; }

  /// Returns an independent copy of the held callable, or an empty
  /// SmallFunction when *this is empty. Callers must check clonable() first:
  /// cloning a non-clonable callable is a logic error and asserts via the
  /// null ops table in debug builds. Cloning exists for the snapshot layer,
  /// which checkpoints the scheduler's armed event slots and later re-arms
  /// bit-identical copies of their callbacks.
  SmallFunction clone() const {
    SmallFunction out;
    if (ops_ != nullptr) {
      ops_->clone(out.storage_, storage_);
      out.ops_ = ops_;
    }
    return out;
  }

  /// Destroys the held callable (if any); leaves *this empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type F would avoid the heap fallback (exposed for
  /// tests and for asserting hot callbacks stay inline).
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* storage);
    void (*relocate)(unsigned char* dst, unsigned char* src);  ///< move + destroy src
    void (*destroy)(unsigned char* storage);
    /// Copy-construct into dst without touching src; nullptr when the
    /// callable's capture is not copy-constructible.
    void (*clone)(unsigned char* dst, const unsigned char* src);
  };

  template <typename Fn>
  static constexpr void (*clone_inline())(unsigned char*, const unsigned char*) {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return [](unsigned char* dst, const unsigned char* src) {
        ::new (static_cast<void*>(dst)) Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
      };
    } else {
      return nullptr;
    }
  }

  template <typename Fn>
  static constexpr void (*clone_heap())(unsigned char*, const unsigned char*) {
    if constexpr (std::is_copy_constructible_v<Fn>) {
      return [](unsigned char* dst, const unsigned char* src) {
        *reinterpret_cast<Fn**>(static_cast<void*>(dst)) =
            new Fn(**std::launder(reinterpret_cast<Fn* const*>(src)));
      };
    } else {
      return nullptr;
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](unsigned char* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*from));
        from->~Fn();
      },
      [](unsigned char* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
      clone_inline<Fn>(),
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](unsigned char* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      [](unsigned char* dst, unsigned char* src) {
        *reinterpret_cast<Fn**>(static_cast<void*>(dst)) =
            *std::launder(reinterpret_cast<Fn**>(src));
      },
      [](unsigned char* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
      clone_heap<Fn>(),
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Free list of recycled Bytes buffers. acquire() returns an empty vector
/// whose capacity is warm from a previous use; release() takes a dead
/// buffer back. The free list is capped so a burst of giant buffers cannot
/// pin memory for the rest of a campaign.
class BufferPool {
 public:
  /// The acquire/reuse/release counters as one value, so a scheduler
  /// snapshot can carry them and its restore can put them back.
  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t reused = 0;
    std::uint64_t released = 0;
  };

  /// The free list is sized for `max_free` up front, so release() never
  /// allocates.
  explicit BufferPool(std::size_t max_free = kDefaultMaxFree) : max_free_(max_free) {
    free_.reserve(max_free_);
  }

  Bytes acquire() {
    ++stats_.acquired;
    if (!free_.empty()) {
      ++stats_.reused;
      Bytes buf = std::move(free_.back());
      free_.pop_back();
      return buf;
    }
    return Bytes();
  }

  void release(Bytes&& buf) {
    if (buf.capacity() == 0) return;  // moved-from / never-written: nothing real to return
    ++stats_.released;
    if (free_.size() >= max_free_) return;  // over cap: freed, not pooled
    buf.clear();
    free_.push_back(std::move(buf));
  }

  /// Total acquire() calls and how many were served from the free list.
  std::uint64_t acquired() const { return stats_.acquired; }
  std::uint64_t reused() const { return stats_.reused; }
  /// Real (capacity-carrying) buffers handed back at a death point — the
  /// pool-balance signal: in a run where every packet dies at a release site,
  /// released() catches up to acquired() minus the packets still in flight.
  std::uint64_t released() const { return stats_.released; }
  std::size_t free_count() const { return free_.size(); }

  /// Drops every pooled buffer (used when a scenario arena is torn down).
  void clear() { free_.clear(); }

  Stats stats() const { return stats_; }
  /// Sets the counters without touching pooled buffers, so per-trial
  /// metrics stay per-trial when the pool outlives a scenario.
  void set_stats(const Stats& stats) { stats_ = stats; }
  void reset_stats() { stats_ = Stats{}; }

  static constexpr std::size_t kDefaultMaxFree = 512;

 private:
  std::vector<Bytes> free_;
  std::size_t max_free_;
  Stats stats_;
};

}  // namespace snake
