// A FIFO byte stream in fixed-size blocks recycled through a BufferPool —
// the TCP send buffer.
//
// Bytes are appended at the back and consumed from the front, and any
// range can be read in place. Blocks hold kBlockBytes each (the first and
// last may hold fewer); a drained block goes back to the pool and a new
// one comes from it, so a queue's memory tracks its live bytes to within a
// block and steady-state streaming allocates nothing. A range that crosses
// a block boundary is gathered into a caller-supplied scratch buffer;
// since kBlockBytes exceeds any MSS, a segment spans at most two blocks.
//
// The queue holds no pool reference: the owner passes its pool to every
// call that takes or returns blocks. A copy (a snapshot) holds the live
// bytes only; copy-assignment (a restore) rewrites the queue's own buffers
// and frees the ones it does not need, as does destruction — buffers go
// back to a pool only through pop_front() and release().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/bytes.h"
#include "util/fifo.h"
#include "util/pool.h"

namespace snake {

class ByteQueue {
 public:
  static constexpr std::size_t kBlockBytes = 4096;

  ByteQueue() = default;
  ByteQueue(const ByteQueue& other);
  ByteQueue(ByteQueue&& other) noexcept
      : blocks_(std::move(other.blocks_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  ByteQueue& operator=(const ByteQueue& other);
  ByteQueue& operator=(ByteQueue&& other) noexcept {
    blocks_ = std::move(other.blocks_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `data`, filling the last block before taking a new one.
  void append(std::span<const std::uint8_t> data, BufferPool& pool);
  /// Consumes the first `n` bytes (all of them if fewer), returning every
  /// block it empties.
  void pop_front(std::size_t n, BufferPool& pool);
  /// Returns every block and leaves the queue empty.
  void release(BufferPool& pool);

  /// The byte at `offset` from the front.
  std::uint8_t operator[](std::size_t offset) const;
  /// Bytes [offset, offset + len): a view into the block when the range
  /// lies inside one, else a copy gathered into `scratch`. Valid until the
  /// queue or `scratch` next changes.
  std::span<const std::uint8_t> view(std::size_t offset, std::size_t len, Bytes& scratch) const;

 private:
  struct Position {
    std::size_t block;
    std::size_t at;
  };
  Position locate(std::size_t offset) const;

  Fifo<Bytes> blocks_;
  std::size_t head_ = 0;  ///< bytes of blocks_.front() already consumed
  std::size_t size_ = 0;  ///< live bytes
};

}  // namespace snake
