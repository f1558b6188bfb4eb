#include "tcp/segment.h"

#include <algorithm>

#include "packet/tcp_format.h"
#include "util/checksum.h"
#include "util/strings.h"

namespace snake::tcp {

namespace {
constexpr std::size_t kFixedHeaderBytes = packet::kTcpHeaderBytes;
constexpr std::size_t kChecksumOffset = 16;

/// Parses the option bytes in [kFixedHeaderBytes, header_bytes). Returns
/// false on malformed options (bad length byte, option overrunning the
/// header, SACK block list not a whole number of 8-byte blocks).
bool parse_options(const Bytes& raw, std::size_t header_bytes, Segment& s) {
  std::size_t at = kFixedHeaderBytes;
  while (at < header_bytes) {
    std::uint8_t kind = raw[at];
    if (kind == packet::kTcpOptEol) return true;
    if (kind == packet::kTcpOptNop) {
      ++at;
      continue;
    }
    if (at + 1 >= header_bytes) return false;  // kind without a length byte
    std::size_t len = raw[at + 1];
    if (len < 2 || at + len > header_bytes) return false;
    switch (kind) {
      case packet::kTcpOptSackPermitted:
        if (len != 2) return false;
        s.sack_permitted = true;
        break;
      case packet::kTcpOptSack: {
        std::size_t body = len - 2;
        if (body == 0 || body % 8 != 0) return false;
        std::size_t blocks = body / 8;
        if (blocks > Segment::kMaxSackBlocks) return false;
        ByteReader r(raw.data() + at + 2, body);
        for (std::size_t i = 0; i < blocks; ++i) {
          SackBlock b;
          b.start = r.u32();
          b.end = r.u32();
          s.sack_blocks.push_back(b);
        }
        break;
      }
      default:
        break;  // unknown option: skip by its length
    }
    at += len;
  }
  return true;
}
}  // namespace

std::uint32_t Segment::seq_len() const {
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  if (has(packet::kTcpSyn)) ++len;
  if (has(packet::kTcpFin)) ++len;
  return len;
}

std::size_t Segment::option_bytes() const {
  std::size_t n = 0;
  if (sack_permitted) n += 4;  // NOP NOP kind-4 len-2
  if (!sack_blocks.empty()) {
    std::size_t blocks = std::min(sack_blocks.size(), kMaxSackBlocks);
    n += 4 + 8 * blocks;  // NOP NOP kind-5 len, then 8 bytes per block
  }
  return n;
}

std::string Segment::summary() const {
  std::string names;
  if (has(packet::kTcpSyn)) names += "SYN+";
  if (has(packet::kTcpFin)) names += "FIN+";
  if (has(packet::kTcpRst)) names += "RST+";
  if (has(packet::kTcpPsh)) names += "PSH+";
  if (has(packet::kTcpAck)) names += "ACK+";
  if (has(packet::kTcpUrg)) names += "URG+";
  if (names.empty())
    names = "none";
  else
    names.pop_back();
  std::string line = str_format("%s seq=%u ack=%u len=%zu win=%u", names.c_str(), seq, ack,
                                payload.size(), window);
  if (!sack_blocks.empty()) line += str_format(" sack=%zu", sack_blocks.size());
  return line;
}

Bytes serialize(const Segment& segment) {
  Bytes out;
  serialize_into(segment, out);
  return out;
}

void serialize_into(const Segment& segment, Bytes& out) {
  std::size_t options = segment.option_bytes();
  std::size_t header_bytes = kFixedHeaderBytes + options;
  out.clear();
  out.reserve(header_bytes + segment.payload.size());
  ByteWriter w(out);
  w.u16(segment.src_port);
  w.u16(segment.dst_port);
  w.u32(segment.seq);
  w.u32(segment.ack);
  std::size_t blocks = std::min(segment.sack_blocks.size(), Segment::kMaxSackBlocks);
  std::uint8_t reserved = 0;
  if (segment.dsack) reserved |= packet::kTcpDsackReservedBit;
  if (blocks > 0) reserved |= packet::kTcpSackReservedBit;
  std::uint16_t offset_reserved_flags =
      static_cast<std::uint16_t>(((header_bytes / 4) << 12) | (reserved << 6) |
                                 (segment.flags & 0x3F));
  w.u16(offset_reserved_flags);
  w.u16(segment.window);
  w.u16(0);  // checksum placeholder
  w.u16(segment.urgent_ptr);
  if (segment.sack_permitted) {
    w.u8(packet::kTcpOptNop);
    w.u8(packet::kTcpOptNop);
    w.u8(packet::kTcpOptSackPermitted);
    w.u8(2);
  }
  if (blocks > 0) {
    w.u8(packet::kTcpOptNop);
    w.u8(packet::kTcpOptNop);
    w.u8(packet::kTcpOptSack);
    w.u8(static_cast<std::uint8_t>(2 + 8 * blocks));
    for (std::size_t i = 0; i < blocks; ++i) {
      w.u32(segment.sack_blocks[i].start);
      w.u32(segment.sack_blocks[i].end);
    }
  }
  w.raw(segment.payload);
  fill_embedded_checksum(out, kChecksumOffset);
}

std::optional<Segment> parse_segment(const Bytes& raw) {
  if (raw.size() < kFixedHeaderBytes) return std::nullopt;
  if (!verify_embedded_checksum(raw, kChecksumOffset)) return std::nullopt;
  ByteReader r(raw);
  Segment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u32();
  s.ack = r.u32();
  std::uint16_t offset_reserved_flags = r.u16();
  s.flags = static_cast<std::uint8_t>(offset_reserved_flags & 0x3F);
  s.dsack = ((offset_reserved_flags >> 6) & packet::kTcpDsackReservedBit) != 0;
  std::size_t header_bytes = static_cast<std::size_t>((offset_reserved_flags >> 12) & 0xF) * 4;
  s.window = r.u16();
  r.u16();  // checksum, already verified
  s.urgent_ptr = r.u16();
  if (header_bytes < kFixedHeaderBytes || header_bytes > raw.size()) return std::nullopt;
  if (!parse_options(raw, header_bytes, s)) return std::nullopt;
  s.payload = Payload(std::span<const std::uint8_t>(raw).subspan(header_bytes));
  return s;
}

}  // namespace snake::tcp
