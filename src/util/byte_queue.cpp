#include "util/byte_queue.h"

#include <algorithm>
#include <cstring>

namespace snake {

ByteQueue::ByteQueue(const ByteQueue& other) { *this = other; }

ByteQueue& ByteQueue::operator=(const ByteQueue& other) {
  if (this == &other) return *this;
  // Copies the live bytes only, into this queue's own buffers where it has
  // them — a snapshot restore rewrites a queue in place without allocating
  // — and frees the buffers it does not need.
  Fifo<Bytes> spare = std::move(blocks_);
  for (std::size_t i = 0; i < other.blocks_.size(); ++i) {
    const Bytes& from = other.blocks_[i];
    Bytes block = i < spare.size() ? std::move(spare[i]) : Bytes();
    block.assign(from.begin() + static_cast<std::ptrdiff_t>(i == 0 ? other.head_ : 0), from.end());
    blocks_.push_back(std::move(block));
  }
  head_ = 0;
  size_ = other.size_;
  return *this;
}

void ByteQueue::append(std::span<const std::uint8_t> data, BufferPool& pool) {
  while (!data.empty()) {
    if (blocks_.empty() || blocks_.back().size() >= kBlockBytes) blocks_.push_back(pool.acquire());
    Bytes& tail = blocks_.back();
    // Pooled blocks already have the room; a fresh one, or a block copied
    // by a snapshot, grows to the block size once.
    if (tail.capacity() < kBlockBytes) tail.reserve(kBlockBytes);
    const std::size_t n = std::min(data.size(), kBlockBytes - tail.size());
    tail.insert(tail.end(), data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
    data = data.subspan(n);
    size_ += n;
  }
}

void ByteQueue::pop_front(std::size_t n, BufferPool& pool) {
  n = std::min(n, size_);
  size_ -= n;
  head_ += n;
  while (!blocks_.empty() && head_ >= blocks_.front().size()) {
    head_ -= blocks_.front().size();
    pool.release(std::move(blocks_.front()));
    blocks_.pop_front();
  }
}

void ByteQueue::release(BufferPool& pool) {
  for (Bytes& block : blocks_) pool.release(std::move(block));
  blocks_.clear();
  head_ = 0;
  size_ = 0;
}

ByteQueue::Position ByteQueue::locate(std::size_t offset) const {
  const std::size_t first = blocks_.front().size() - head_;
  if (offset < first) return {0, head_ + offset};
  offset -= first;
  return {1 + offset / kBlockBytes, offset % kBlockBytes};
}

std::uint8_t ByteQueue::operator[](std::size_t offset) const {
  const Position p = locate(offset);
  return blocks_[p.block][p.at];
}

std::span<const std::uint8_t> ByteQueue::view(std::size_t offset, std::size_t len,
                                               Bytes& scratch) const {
  if (len == 0) return {};
  Position p = locate(offset);
  const Bytes& block = blocks_[p.block];
  if (p.at + len <= block.size()) return {block.data() + p.at, len};
  scratch.resize(len);
  for (std::size_t done = 0; done < len; p = {p.block + 1, 0}) {
    const Bytes& from = blocks_[p.block];
    const std::size_t n = std::min(len - done, from.size() - p.at);
    std::memcpy(scratch.data() + done, from.data() + p.at, n);
    done += n;
  }
  return scratch;
}

}  // namespace snake
