// DCCP packet: typed view plus wire serialization matching the DSL layout in
// src/packet/dccp_format.h (flattened 24-byte header, see that file's layout
// note).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dccp/seq48.h"
#include "packet/dccp_format.h"
#include "util/bytes.h"

namespace snake::dccp {

using packet::DccpType;

struct DccpPacket {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  DccpType type = packet::kDccpData;
  Seq48 seq = 0;
  Seq48 ack = 0;     ///< for Request/Response this aliases the service code
  bool has_ack = false;
  /// A parsed packet's payload is a view into the buffer it was parsed
  /// from; an endpoint's outgoing payload is a view of the queued datagram.
  Payload payload;

  bool is_data() const {
    return type == packet::kDccpData || type == packet::kDccpDataAck;
  }
  std::string summary() const;
};

/// True for the packet types that carry an acknowledgment number
/// (everything except Request and Data, RFC 4340 §5.1).
bool type_carries_ack(DccpType type);

const char* type_name(DccpType type);

Bytes serialize(const DccpPacket& packet);

/// Serializes into `out` (cleared first), reusing its capacity, copying the
/// payload straight from its view — see tcp::serialize_into; this is the
/// pooled-buffer variant for the endpoint hot path.
void serialize_into(const DccpPacket& packet, Bytes& out);

/// Returns std::nullopt on truncation or checksum failure. The payload is a
/// view into `raw`, valid while `raw` lives unchanged (see
/// tcp::parse_segment).
std::optional<DccpPacket> parse_dccp(const Bytes& raw);
/// A view into a temporary would dangle: bind the bytes to a name first.
std::optional<DccpPacket> parse_dccp(Bytes&& raw) = delete;

}  // namespace snake::dccp
