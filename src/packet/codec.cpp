#include "packet/codec.h"

#include <stdexcept>

#include "util/checksum.h"

namespace snake::packet {

Bytes Codec::build(const std::string& packet_type,
                   const std::map<std::string, std::uint64_t>& fields) const {
  Bytes raw(format_->header_bytes(), 0);
  const PacketTypeSpec* type = nullptr;
  for (const auto& t : format_->packet_types()) {
    if (t.name == packet_type) {
      const FieldSpec& f = format_->field_or_throw(t.discriminator_field);
      write_bits(raw, f.bit_offset, f.bit_width, t.match_value);
      type = &t;
      break;
    }
  }
  if (type == nullptr)
    throw std::invalid_argument("Codec::build: unknown packet type '" + packet_type + "'");
  for (const auto& [name, value] : fields) {
    if (name == type->discriminator_field)
      throw std::invalid_argument("Codec::build: field '" + name +
                                  "' is the discriminator of packet type '" + packet_type +
                                  "'; the type tag is set by the type name, not the fields map");
    const FieldSpec& f = format_->field_or_throw(name);
    write_bits(raw, f.bit_offset, f.bit_width, value & f.max_value());
  }
  refresh_checksum(raw);
  return raw;
}

void Codec::refresh_checksum(Bytes& raw) const {
  if (auto offset = format_->checksum_offset(); offset.has_value()) {
    fill_embedded_checksum(raw, *offset);
  }
}

}  // namespace snake::packet
