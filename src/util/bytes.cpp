#include "util/bytes.h"

#include <cstdio>

namespace snake {

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::u48(std::uint64_t v) {
  for (int shift = 40; shift >= 0; shift -= 8)
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::raw(std::span<const std::uint8_t> data) { out_.insert(out_.end(), data.begin(), data.end()); }

void ByteWriter::zeros(std::size_t count) { out_.insert(out_.end(), count, 0); }

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u48() {
  require(6);
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 6;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Bytes ByteReader::raw(std::size_t count) {
  require(count);
  Bytes out(data_ + pos_, data_ + pos_ + count);
  pos_ += count;
  return out;
}

void ByteReader::skip(std::size_t count) {
  require(count);
  pos_ += count;
}

std::uint64_t read_bits(const Bytes& buf, std::size_t bit_offset, std::size_t bit_width) {
  if (bit_width > 64) throw std::out_of_range("read_bits: width > 64");
  if ((bit_offset + bit_width + 7) / 8 > buf.size())
    throw std::out_of_range("read_bits: beyond buffer");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bit_width; ++i) {
    std::size_t bit = bit_offset + i;
    std::uint8_t byte = buf[bit / 8];
    std::uint8_t b = (byte >> (7 - bit % 8)) & 1u;
    value = (value << 1) | b;
  }
  return value;
}

void write_bits(Bytes& buf, std::size_t bit_offset, std::size_t bit_width, std::uint64_t value) {
  if (bit_width > 64) throw std::out_of_range("write_bits: width > 64");
  if ((bit_offset + bit_width + 7) / 8 > buf.size())
    throw std::out_of_range("write_bits: beyond buffer");
  for (std::size_t i = 0; i < bit_width; ++i) {
    std::size_t bit = bit_offset + i;
    std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - bit % 8));
    bool set = (value >> (bit_width - 1 - i)) & 1u;
    if (set)
      buf[bit / 8] |= mask;
    else
      buf[bit / 8] &= static_cast<std::uint8_t>(~mask);
  }
}

std::string to_hex(const Bytes& data) {
  std::string out;
  out.reserve(data.size() * 3);
  char tmp[4];
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::snprintf(tmp, sizeof(tmp), i ? " %02x" : "%02x", data[i]);
    out += tmp;
  }
  return out;
}

}  // namespace snake
