#include "dccp/packet.h"

#include "util/checksum.h"
#include "util/strings.h"

namespace snake::dccp {

namespace {
constexpr std::size_t kHeaderBytes = packet::kDccpHeaderBytes;
constexpr std::size_t kChecksumOffset = 6;
constexpr std::uint8_t kDataOffsetWords = kHeaderBytes / 4;
}  // namespace

bool type_carries_ack(DccpType type) {
  switch (type) {
    case packet::kDccpRequest:
    case packet::kDccpData:
      return false;
    default:
      return true;
  }
}

const char* type_name(DccpType type) {
  switch (type) {
    case packet::kDccpRequest: return "DCCP-Request";
    case packet::kDccpResponse: return "DCCP-Response";
    case packet::kDccpData: return "DCCP-Data";
    case packet::kDccpAck: return "DCCP-Ack";
    case packet::kDccpDataAck: return "DCCP-DataAck";
    case packet::kDccpCloseReq: return "DCCP-CloseReq";
    case packet::kDccpClose: return "DCCP-Close";
    case packet::kDccpReset: return "DCCP-Reset";
    case packet::kDccpSync: return "DCCP-Sync";
    case packet::kDccpSyncAck: return "DCCP-SyncAck";
  }
  return "unknown";
}

std::string DccpPacket::summary() const {
  return str_format("%s seq=%llu ack=%llu len=%zu", type_name(type),
                    static_cast<unsigned long long>(seq), static_cast<unsigned long long>(ack),
                    payload.size());
}

Bytes serialize(const DccpPacket& p) {
  Bytes out;
  serialize_into(p, out);
  return out;
}

void serialize_into(const DccpPacket& p, Bytes& out) {
  out.clear();
  out.reserve(kHeaderBytes + p.payload.size());
  ByteWriter w(out);
  w.u16(p.src_port);
  w.u16(p.dst_port);
  w.u8(kDataOffsetWords);     // data offset in words
  w.u8(0);                    // ccval | cscov
  w.u16(0);                   // checksum placeholder
  // res(3) | type(4) | x(1): X=1 selects 48-bit sequence numbers.
  w.u8(static_cast<std::uint8_t>(((p.type & 0xF) << 1) | 1));
  w.u8(0);                    // reserved
  w.u48(p.seq & kSeqMask);
  w.u16(0);                   // ack_reserved
  w.u48(p.ack & kSeqMask);
  w.raw(p.payload);
  fill_embedded_checksum(out, kChecksumOffset);
}

std::optional<DccpPacket> parse_dccp(const Bytes& raw) {
  if (raw.size() < kHeaderBytes) return std::nullopt;
  if (!verify_embedded_checksum(raw, kChecksumOffset)) return std::nullopt;
  ByteReader r(raw);
  DccpPacket p;
  p.src_port = r.u16();
  p.dst_port = r.u16();
  std::uint8_t data_offset_words = r.u8();
  r.u8();  // ccval | cscov
  r.u16();  // checksum, verified above
  std::uint8_t res_type_x = r.u8();
  p.type = static_cast<DccpType>((res_type_x >> 1) & 0xF);
  r.u8();  // reserved
  p.seq = r.u48();
  r.u16();  // ack_reserved
  p.ack = r.u48();
  p.has_ack = type_carries_ack(p.type);
  std::size_t header_bytes = static_cast<std::size_t>(data_offset_words) * 4;
  if (header_bytes < kHeaderBytes || header_bytes > raw.size()) return std::nullopt;
  p.payload = Payload(std::span<const std::uint8_t>(raw).subspan(header_bytes));
  return p;
}

}  // namespace snake::dccp
