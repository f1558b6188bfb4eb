#include "packet/header_format.h"

#include <stdexcept>
#include <utility>

namespace snake::packet {

const char* to_string(FieldKind kind) {
  switch (kind) {
    case FieldKind::kGeneric: return "generic";
    case FieldKind::kPort: return "port";
    case FieldKind::kSequence: return "sequence";
    case FieldKind::kWindow: return "window";
    case FieldKind::kFlags: return "flags";
    case FieldKind::kChecksum: return "checksum";
    case FieldKind::kLength: return "length";
    case FieldKind::kType: return "type";
  }
  return "?";
}

HeaderFormat::HeaderFormat(std::string protocol_name, std::size_t header_bytes,
                           std::vector<FieldSpec> fields, std::vector<PacketTypeSpec> types)
    : protocol_name_(std::move(protocol_name)),
      header_bytes_(header_bytes),
      fields_(std::move(fields)),
      types_(std::move(types)) {
  for (const auto& f : fields_) {
    if ((f.bit_offset + f.bit_width + 7) / 8 > header_bytes_)
      throw std::invalid_argument("HeaderFormat: field '" + f.name + "' exceeds header size");
    if (f.bit_width == 0 || f.bit_width > 64)
      throw std::invalid_argument("HeaderFormat: field '" + f.name +
                                  "' has unsupported bit width " + std::to_string(f.bit_width));
    if (f.kind == FieldKind::kChecksum) {
      // fill_embedded_checksum stamps a 16-bit ones-complement sum at a byte
      // offset; a mid-byte or non-16-bit checksum field would be silently
      // corrupted, so reject the format outright.
      if (f.bit_offset % 8 != 0)
        throw std::invalid_argument(
            "HeaderFormat(" + protocol_name_ + "): checksum field '" + f.name +
            "' is not byte-aligned (bit offset " + std::to_string(f.bit_offset) +
            "); embedded checksums must start on a byte boundary");
      if (f.bit_width != 16)
        throw std::invalid_argument(
            "HeaderFormat(" + protocol_name_ + "): checksum field '" + f.name + "' is " +
            std::to_string(f.bit_width) + " bits wide; embedded checksums must be 16 bits");
    }
  }
  for (const auto& t : types_) {
    if (field(t.discriminator_field) == nullptr)
      throw std::invalid_argument("HeaderFormat: packet type '" + t.name +
                                  "' references unknown field '" + t.discriminator_field + "'");
  }

  // Compile fixed-offset accessors (paper: "automatically generated C++ code
  // to parse and modify this header") and the classification table.
  compiled_.reserve(fields_.size());
  for (std::size_t i = 0; i < fields_.size(); ++i) compiled_.push_back(compile_field(i));

  compiled_types_.reserve(types_.size());
  for (const auto& t : types_) {
    CompiledType ct;
    ct.discriminator = static_cast<std::uint32_t>(field_index(t.discriminator_field));
    ct.match_mask = t.match_mask;
    ct.match_value = t.match_value;
    compiled_types_.push_back(ct);
  }
  if (!compiled_types_.empty()) {
    common_discriminator_ = static_cast<int>(compiled_types_.front().discriminator);
    for (const auto& ct : compiled_types_) {
      if (static_cast<int>(ct.discriminator) != common_discriminator_) {
        common_discriminator_ = -1;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].kind == FieldKind::kChecksum) {
      checksum_byte_offset_ = fields_[i].bit_offset / 8;
      break;
    }
  }
}

CompiledField HeaderFormat::compile_field(std::size_t index) const {
  const FieldSpec& f = fields_[index];
  CompiledField c;
  c.index = static_cast<std::uint32_t>(index);
  c.kind = f.kind;
  c.value_mask = f.max_value();
  if (f.bit_offset % 8 == 0 &&
      (f.bit_width == 8 || f.bit_width == 16 || f.bit_width == 32 || f.bit_width == 48 ||
       f.bit_width == 64)) {
    c.byte_offset = static_cast<std::uint32_t>(f.bit_offset / 8);
    switch (f.bit_width) {
      case 8: c.access = CompiledField::Access::kU8; break;
      case 16: c.access = CompiledField::Access::kU16; break;
      case 32: c.access = CompiledField::Access::kU32; break;
      case 48: c.access = CompiledField::Access::kU48; break;
      default: c.access = CompiledField::Access::kU64; break;
    }
    c.span_bytes = static_cast<std::uint32_t>(f.bit_width / 8);
    c.shift = 0;
    return c;
  }
  // General bit field: load the spanning bytes as one big-endian window,
  // shift the field down to bit 0. Field bounds were validated above; any
  // field that fits a 64-bit value within a header also fits an 8-byte
  // window (bit_width + intra-byte offset <= 64 holds for every width <= 57;
  // wider unaligned fields are rejected here rather than mis-read).
  std::size_t first_byte = f.bit_offset / 8;
  std::size_t last_byte = (f.bit_offset + f.bit_width - 1) / 8;
  std::size_t span = last_byte - first_byte + 1;
  if (span > 8)
    throw std::invalid_argument("HeaderFormat(" + protocol_name_ + "): field '" + f.name +
                                "' spans " + std::to_string(span) +
                                " bytes unaligned; not representable in a compiled window");
  c.access = CompiledField::Access::kWindow;
  c.byte_offset = static_cast<std::uint32_t>(first_byte);
  c.span_bytes = static_cast<std::uint32_t>(span);
  c.shift = static_cast<std::uint32_t>((last_byte + 1) * 8 - (f.bit_offset + f.bit_width));
  return c;
}

const FieldSpec* HeaderFormat::field(const std::string& name) const {
  for (const auto& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

const FieldSpec& HeaderFormat::field_or_throw(const std::string& name) const {
  const FieldSpec* f = field(name);
  if (f == nullptr)
    throw std::invalid_argument("HeaderFormat(" + protocol_name_ + "): no field '" + name + "'");
  return *f;
}

std::optional<std::size_t> HeaderFormat::checksum_offset() const {
  for (const auto& f : fields_) {
    if (f.kind == FieldKind::kChecksum) {
      // Checksums are byte-aligned 16-bit fields in every format we model.
      return f.bit_offset / 8;
    }
  }
  return std::nullopt;
}

const CompiledField* HeaderFormat::compiled(const std::string& name) const {
  int index = field_index(name);
  return index < 0 ? nullptr : &compiled_[static_cast<std::size_t>(index)];
}

int HeaderFormat::field_index(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i)
    if (fields_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::uint64_t HeaderFormat::read(const Bytes& raw, const CompiledField& f) const {
  const std::uint8_t* p = raw.data() + f.byte_offset;
  switch (f.access) {
    case CompiledField::Access::kU8:
      return p[0];
    case CompiledField::Access::kU16:
      return static_cast<std::uint64_t>(p[0]) << 8 | p[1];
    case CompiledField::Access::kU32:
      return static_cast<std::uint64_t>(p[0]) << 24 | static_cast<std::uint64_t>(p[1]) << 16 |
             static_cast<std::uint64_t>(p[2]) << 8 | p[3];
    case CompiledField::Access::kU48:
      return static_cast<std::uint64_t>(p[0]) << 40 | static_cast<std::uint64_t>(p[1]) << 32 |
             static_cast<std::uint64_t>(p[2]) << 24 | static_cast<std::uint64_t>(p[3]) << 16 |
             static_cast<std::uint64_t>(p[4]) << 8 | p[5];
    case CompiledField::Access::kU64: {
      std::uint64_t v = 0;
      for (std::uint32_t i = 0; i < 8; ++i) v = v << 8 | p[i];
      return v;
    }
    case CompiledField::Access::kWindow: {
      std::uint64_t window = 0;
      for (std::uint32_t i = 0; i < f.span_bytes; ++i) window = window << 8 | p[i];
      return (window >> f.shift) & f.value_mask;
    }
  }
  return 0;
}

void HeaderFormat::write(Bytes& raw, const CompiledField& f, std::uint64_t value) const {
  value &= f.value_mask;
  std::uint8_t* p = raw.data() + f.byte_offset;
  switch (f.access) {
    case CompiledField::Access::kU8:
      p[0] = static_cast<std::uint8_t>(value);
      return;
    case CompiledField::Access::kU16:
      p[0] = static_cast<std::uint8_t>(value >> 8);
      p[1] = static_cast<std::uint8_t>(value);
      return;
    case CompiledField::Access::kU32:
      p[0] = static_cast<std::uint8_t>(value >> 24);
      p[1] = static_cast<std::uint8_t>(value >> 16);
      p[2] = static_cast<std::uint8_t>(value >> 8);
      p[3] = static_cast<std::uint8_t>(value);
      return;
    case CompiledField::Access::kU48:
      p[0] = static_cast<std::uint8_t>(value >> 40);
      p[1] = static_cast<std::uint8_t>(value >> 32);
      p[2] = static_cast<std::uint8_t>(value >> 24);
      p[3] = static_cast<std::uint8_t>(value >> 16);
      p[4] = static_cast<std::uint8_t>(value >> 8);
      p[5] = static_cast<std::uint8_t>(value);
      return;
    case CompiledField::Access::kU64:
      for (std::uint32_t i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(value >> (8 * (7 - i)));
      return;
    case CompiledField::Access::kWindow: {
      std::uint64_t window = 0;
      for (std::uint32_t i = 0; i < f.span_bytes; ++i) window = window << 8 | p[i];
      window &= ~(f.value_mask << f.shift);
      window |= value << f.shift;
      for (std::uint32_t i = 0; i < f.span_bytes; ++i)
        p[i] = static_cast<std::uint8_t>(window >> (8 * (f.span_bytes - 1 - i)));
      return;
    }
  }
}

int HeaderFormat::classify_index(const Bytes& raw) const {
  if (raw.size() < header_bytes_) return -1;
  if (common_discriminator_ >= 0) {
    std::uint64_t value = read(raw, compiled_[static_cast<std::size_t>(common_discriminator_)]);
    for (std::size_t i = 0; i < compiled_types_.size(); ++i) {
      const CompiledType& ct = compiled_types_[i];
      if ((value & ct.match_mask) == ct.match_value) return static_cast<int>(i);
    }
    return -1;
  }
  for (std::size_t i = 0; i < compiled_types_.size(); ++i) {
    const CompiledType& ct = compiled_types_[i];
    std::uint64_t value = read(raw, compiled_[ct.discriminator]);
    if ((value & ct.match_mask) == ct.match_value) return static_cast<int>(i);
  }
  return -1;
}

const std::string& HeaderFormat::type_name(int type_index) const {
  static const std::string kUnknown = "unknown";
  if (type_index < 0 || static_cast<std::size_t>(type_index) >= types_.size()) return kUnknown;
  return types_[static_cast<std::size_t>(type_index)].name;
}

int HeaderFormat::type_index(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i].name == name) return static_cast<int>(i);
  return -1;
}

}  // namespace snake::packet
