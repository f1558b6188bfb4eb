// Protocol header descriptions.
//
// SNAKE takes, as user input, a description of the protocol's packet header
// format and uses it to (a) generate field-manipulation ("lie") strategies
// per field and (b) parse/modify/build raw packets in the attack proxy. The
// paper describes a "simple language to describe the header structure" from
// which C++ parsing code is generated; here the same description drives a
// runtime codec (src/packet/codec.h), which is behaviourally equivalent.
//
// A HeaderFormat is a sequence of bit-aligned fields, a way to classify a
// raw packet into a named *packet type* (TCP uses flag combinations, DCCP a
// type field), and metadata marking which fields are sequence-like,
// port-like, or checksums — used to pick interesting "lie" values and to
// maintain checksum validity after modification.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace snake::packet {

/// Semantic tag for a field; drives the attack generator's value choices.
enum class FieldKind {
  kGeneric,   ///< plain number
  kPort,      ///< connection identifier; modifying it breaks addressing
  kSequence,  ///< sequence/acknowledgment number
  kWindow,    ///< flow-control window
  kFlags,     ///< bit flags (TCP)
  kChecksum,  ///< recomputed after any modification
  kLength,    ///< header or payload length; structural
  kType,      ///< packet type discriminator (DCCP)
};

const char* to_string(FieldKind kind);

struct FieldSpec {
  std::string name;
  std::size_t bit_offset = 0;
  std::size_t bit_width = 0;
  FieldKind kind = FieldKind::kGeneric;

  std::uint64_t max_value() const {
    return bit_width >= 64 ? ~0ULL : ((1ULL << bit_width) - 1);
  }
};

/// One named packet type and how to recognize it. For flag-based protocols
/// (TCP) a type matches when `discriminator` == `match_value` after applying
/// `match_mask`; for type-field protocols (DCCP) the mask covers the whole
/// field.
struct PacketTypeSpec {
  std::string name;
  std::string discriminator_field;
  std::uint64_t match_mask = 0;
  std::uint64_t match_value = 0;
};

/// Fixed-offset accessor for one field, compiled at HeaderFormat
/// construction — the runtime equivalent of the paper's generated C++
/// parsing code. The hot path dispatches on `access` to a direct big-endian
/// load/store; no string lookup, no per-bit loop for the common shapes.
struct CompiledField {
  /// How to reach the field's bits.
  enum class Access : std::uint8_t {
    kU8,     ///< byte-aligned 8-bit
    kU16,    ///< byte-aligned 16-bit
    kU32,    ///< byte-aligned 32-bit
    kU48,    ///< byte-aligned 48-bit
    kU64,    ///< byte-aligned 64-bit
    kWindow  ///< arbitrary bit field within an 8-byte window
  };

  std::uint32_t index = 0;        ///< position in HeaderFormat::fields()
  Access access = Access::kU8;
  FieldKind kind = FieldKind::kGeneric;
  std::uint32_t byte_offset = 0;  ///< first byte touched
  std::uint32_t span_bytes = 0;   ///< bytes touched (window mode)
  std::uint32_t shift = 0;        ///< right-shift after loading the window
  std::uint64_t value_mask = 0;   ///< (1 << bit_width) - 1
};

class HeaderFormat {
 public:
  /// Validates the description and compiles the per-field accessors and the
  /// classification table. Throws std::invalid_argument when a field exceeds
  /// the header, a packet type references an unknown discriminator, or a
  /// checksum field is not a byte-aligned 16-bit quantity (the embedded
  /// ones-complement checksum writer stamps exactly two bytes at a byte
  /// offset, so anything else would be silently corrupted).
  HeaderFormat(std::string protocol_name, std::size_t header_bytes,
               std::vector<FieldSpec> fields, std::vector<PacketTypeSpec> types);

  const std::string& protocol_name() const { return protocol_name_; }
  std::size_t header_bytes() const { return header_bytes_; }
  const std::vector<FieldSpec>& fields() const { return fields_; }
  const std::vector<PacketTypeSpec>& packet_types() const { return types_; }

  const FieldSpec* field(const std::string& name) const;
  const FieldSpec& field_or_throw(const std::string& name) const;

  /// Checksum field byte offset, if the format declares one. Alignment and
  /// width are validated at construction, so the byte offset is exact.
  std::optional<std::size_t> checksum_offset() const;

  // ---- Compiled accessors ----------------------------------------------
  /// Compiled accessor for a field, by fields() position or by name
  /// (nullptr when no such field). Name lookup is for setup-time resolution;
  /// per-packet code holds the returned pointer.
  const CompiledField& compiled_at(std::size_t index) const { return compiled_[index]; }
  const CompiledField* compiled(const std::string& name) const;

  /// fields() position for a name, or -1. Setup-time only.
  int field_index(const std::string& name) const;

  /// Compiled read/write through a fixed-offset accessor. `raw` must be at
  /// least header_bytes() long (same contract as read_bits/write_bits).
  /// Writes truncate to the field width and do NOT refresh the checksum —
  /// that policy lives in Codec.
  std::uint64_t read(const Bytes& raw, const CompiledField& f) const;
  void write(Bytes& raw, const CompiledField& f, std::uint64_t value) const;

  /// Classifies raw bytes: the packet_types() index of the first type (in
  /// declaration order) whose discriminator matches, or -1 for unmatched or
  /// truncated packets; type_name() turns it into "SYN+ACK",
  /// "DCCP-Request", ... Discriminator accessors are resolved at construction
  /// (no string compares); when every type shares one discriminator field —
  /// true of both shipped formats — it is read once per packet.
  int classify_index(const Bytes& raw) const;

  /// Name for a classify_index() result ("unknown" for -1).
  const std::string& type_name(int type_index) const;

  /// packet_types() position for a type name, or -1. Setup-time only.
  int type_index(const std::string& name) const;

 private:
  CompiledField compile_field(std::size_t index) const;

  std::string protocol_name_;
  std::size_t header_bytes_;
  std::vector<FieldSpec> fields_;
  std::vector<PacketTypeSpec> types_;

  // Compiled at construction.
  std::vector<CompiledField> compiled_;
  struct CompiledType {
    std::uint32_t discriminator = 0;  ///< index into compiled_ (copy-safe)
    std::uint64_t match_mask = 0;
    std::uint64_t match_value = 0;
  };
  std::vector<CompiledType> compiled_types_;
  /// compiled_ index of the discriminator shared by every packet type, or -1
  /// when types disagree (then each type reads its own).
  int common_discriminator_ = -1;
  std::optional<std::size_t> checksum_byte_offset_;
};

}  // namespace snake::packet
