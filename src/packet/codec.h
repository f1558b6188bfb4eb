// Runtime packet codec driven by a HeaderFormat — the reproduction of the
// paper's "automatically generated C++ code to parse and modify this
// header". The proxy never understands TCP or DCCP natively; everything it
// does to a packet goes through this codec, through field accessors it
// resolves by name once at setup (format().compiled(name)).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "packet/header_format.h"
#include "util/bytes.h"

namespace snake::packet {

class Codec {
 public:
  explicit Codec(const HeaderFormat& format) : format_(&format) {}

  const HeaderFormat& format() const { return *format_; }

  /// Builds a minimal header-only packet of the named packet type with the
  /// given fields; unspecified fields are zero. Used by the off-path inject
  /// and hitseqwindow attacks to forge packets from scratch. Throws
  /// std::invalid_argument for an unknown type or when `fields` names the
  /// type's discriminator field — a caller-supplied discriminator would
  /// silently overwrite the type tag and build a different packet than asked.
  Bytes build(const std::string& packet_type,
              const std::map<std::string, std::uint64_t>& fields) const;

  // ---- Field access and classification ----------------------------------
  // Per-packet code resolves CompiledField pointers once at setup
  // (format().compiled(name)) and then reads/writes through fixed offsets;
  // no string lookup per packet. `raw` must hold a full header.
  std::uint64_t get_fast(const Bytes& raw, const CompiledField& f) const {
    return format_->read(raw, f);
  }
  /// Writes a field (value truncated to field width) and refreshes the
  /// embedded checksum unless the written field IS the checksum, so the
  /// packet stays acceptable to the receiver — the paper's proxy does the
  /// same, since the goal is semantic manipulation, not checksum fuzzing.
  void set_fast(Bytes& raw, const CompiledField& f, std::uint64_t value) const {
    format_->write(raw, f, value);
    if (f.kind != FieldKind::kChecksum) refresh_checksum(raw);
  }
  int classify_index(const Bytes& raw) const { return format_->classify_index(raw); }
  const std::string& type_name(int type_index) const { return format_->type_name(type_index); }

  void refresh_checksum(Bytes& raw) const;

 private:
  const HeaderFormat* format_;
};

}  // namespace snake::packet
