// Big-endian byte serialization helpers.
//
// All wire formats in this repo (TCP, DCCP) are network byte order; these
// helpers are the single place where endianness is handled.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace snake {

using Bytes = std::vector<std::uint8_t>;

/// A packet's payload as the typed packet views (tcp::Segment,
/// dccp::DccpPacket) carry it: a view of bytes that live elsewhere, or its
/// own copy. The data path only makes views — parsing points the payload
/// into the wire buffer, a sender points it into its send queue — so no
/// packet copies its payload on the way in or out. A view is valid only
/// while the bytes it points into are alive and unchanged. Assigning bytes
/// (a Bytes or a brace list, as tests and hand-built packets do) makes an
/// owning payload, which copies like a value.
class Payload {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  Payload() = default;
  /// A view of `bytes`, which must outlive every use of this payload.
  explicit Payload(std::span<const std::uint8_t> bytes) : view_(bytes) {}
  Payload(Bytes bytes) : owned_(std::move(bytes)), owning_(true), view_(owned_) {}
  Payload(std::initializer_list<std::uint8_t> bytes) : Payload(Bytes(bytes)) {}

  Payload(const Payload& other) : owned_(other.owned_), owning_(other.owning_) {
    view_ = owning_ ? std::span<const std::uint8_t>(owned_) : other.view_;
  }
  Payload(Payload&& other) noexcept : owned_(std::move(other.owned_)), owning_(other.owning_) {
    view_ = owning_ ? std::span<const std::uint8_t>(owned_) : other.view_;
  }
  Payload& operator=(Payload other) noexcept {
    owned_ = std::move(other.owned_);
    owning_ = other.owning_;
    view_ = owning_ ? std::span<const std::uint8_t>(owned_) : other.view_;
    return *this;
  }

  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const std::uint8_t* data() const { return view_.data(); }
  const_iterator begin() const { return view_.data(); }
  const_iterator end() const { return view_.data() + view_.size(); }
  std::uint8_t operator[](std::size_t i) const { return view_[i]; }
  std::span<const std::uint8_t> bytes() const { return view_; }
  operator std::span<const std::uint8_t>() const { return view_; }  // NOLINT: a payload is bytes

  bool operator==(const Payload& other) const { return std::ranges::equal(view_, other.view_); }

 private:
  Bytes owned_;
  bool owning_ = false;
  std::span<const std::uint8_t> view_;
};

/// Appends big-endian integers to a growing buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u48(std::uint64_t v);  // low 48 bits, used by DCCP sequence numbers
  void u64(std::uint64_t v);
  void raw(std::span<const std::uint8_t> data);
  void zeros(std::size_t count);

  std::size_t size() const { return out_.size(); }

 private:
  Bytes& out_;
};

/// Reads big-endian integers from a fixed buffer; throws std::out_of_range on
/// truncated input (callers treat that as a malformed packet).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u48();
  std::uint64_t u64();
  Bytes raw(std::size_t count);
  void skip(std::size_t count);

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t count) const {
    if (pos_ + count > size_) throw std::out_of_range("ByteReader: truncated buffer");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Reads/writes an arbitrary bit-aligned unsigned field within a buffer.
/// This powers the packet-format DSL codec: fields are described by bit
/// offset and bit width, exactly like the header diagrams in the RFCs.
std::uint64_t read_bits(const Bytes& buf, std::size_t bit_offset, std::size_t bit_width);
void write_bits(Bytes& buf, std::size_t bit_offset, std::size_t bit_width, std::uint64_t value);

/// Hex dump ("a1 b2 c3 ...") for traces and test failure messages.
std::string to_hex(const Bytes& data);

}  // namespace snake
