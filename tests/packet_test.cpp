// Unit + property tests for the header-format DSL, codec, and the TCP/DCCP
// format descriptions.
#include <gtest/gtest.h>

#include "packet/codec.h"
#include "packet/dccp_format.h"
#include "packet/format_dsl.h"
#include "packet/header_format.h"
#include "packet/tcp_format.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace snake::packet {
namespace {

TEST(FormatDsl, ParsesMinimalHeader) {
  HeaderFormat f = parse_header_format(
      "header mini 4 {\n"
      "  a : 16;\n"
      "  b : 16 window;\n"
      "}\n");
  EXPECT_EQ(f.protocol_name(), "mini");
  EXPECT_EQ(f.header_bytes(), 4u);
  ASSERT_EQ(f.fields().size(), 2u);
  EXPECT_EQ(f.fields()[0].bit_offset, 0u);
  EXPECT_EQ(f.fields()[1].bit_offset, 16u);
  EXPECT_EQ(f.fields()[1].kind, FieldKind::kWindow);
}

TEST(FormatDsl, ParsesTypesAndComments) {
  HeaderFormat f = parse_header_format(
      "# comment\n"
      "header t 1 {\n"
      "  kindof : 8 type;  # inline comment\n"
      "}\n"
      "type A kindof mask 0xff value 1;\n"
      "type B kindof mask 0xff value 2;\n");
  ASSERT_EQ(f.packet_types().size(), 2u);
  EXPECT_EQ(f.type_name(f.classify_index({1})), "A");
  EXPECT_EQ(f.type_name(f.classify_index({2})), "B");
  EXPECT_EQ(f.type_name(f.classify_index({3})), "unknown");
}

TEST(FormatDsl, RejectsMalformedInput) {
  EXPECT_THROW(parse_header_format("header x 2 {\n a : 99;\n}\n"), std::invalid_argument);
  EXPECT_THROW(parse_header_format("nonsense\n"), std::invalid_argument);
  EXPECT_THROW(parse_header_format("header x 1 {\n a : 16;\n}\n"), std::invalid_argument);
  EXPECT_THROW(parse_header_format(""), std::invalid_argument);
  EXPECT_THROW(parse_header_format("header x 2 {\n a : 8;\n}\n"
                                   "type T missing mask 1 value 1;\n"),
               std::invalid_argument);
}

TEST(TcpFormat, LayoutMatchesRfc793) {
  const HeaderFormat& f = tcp_format();
  EXPECT_EQ(f.header_bytes(), kTcpHeaderBytes);
  EXPECT_EQ(f.field_or_throw("seq").bit_offset, 32u);
  EXPECT_EQ(f.field_or_throw("ack").bit_offset, 64u);
  EXPECT_EQ(f.field_or_throw("flags").bit_offset, 106u);
  EXPECT_EQ(f.field_or_throw("flags").bit_width, 6u);
  EXPECT_EQ(f.field_or_throw("window").bit_offset, 112u);
  EXPECT_EQ(f.field_or_throw("checksum").kind, FieldKind::kChecksum);
  EXPECT_EQ(*f.checksum_offset(), 16u);
}

TEST(TcpFormat, ClassifiesFlagCombinations) {
  const Codec& c = tcp_codec();
  const CompiledField& flags = *c.format().compiled("flags");
  Bytes raw(kTcpHeaderBytes, 0);
  c.set_fast(raw, flags, kTcpSyn);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "SYN");
  c.set_fast(raw, flags, kTcpSyn | kTcpAck);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "SYN+ACK");
  c.set_fast(raw, flags, kTcpAck);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "ACK");
  c.set_fast(raw, flags, kTcpPsh | kTcpAck);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "PSH+ACK");
  c.set_fast(raw, flags, kTcpFin | kTcpAck);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "FIN+ACK");
  c.set_fast(raw, flags, kTcpRst);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "RST");
  c.set_fast(raw, flags, kTcpRst | kTcpAck);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "RST+ACK");
  // Nonsensical combination: SYN+FIN+ACK+RST — exactly the invalid-flags
  // attack surface; classifies as unknown.
  c.set_fast(raw, flags, kTcpSyn | kTcpFin | kTcpAck | kTcpRst);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "unknown");
}

TEST(TcpFormat, SetRefreshesChecksum) {
  const Codec& c = tcp_codec();
  const CompiledField& seq = *c.format().compiled("seq");
  const CompiledField& window = *c.format().compiled("window");
  Bytes raw(kTcpHeaderBytes, 0);
  c.set_fast(raw, seq, 0x11223344);
  EXPECT_TRUE(verify_embedded_checksum(raw, 16));
  c.set_fast(raw, window, 4096);
  EXPECT_TRUE(verify_embedded_checksum(raw, 16));
  EXPECT_EQ(c.get_fast(raw, seq), 0x11223344u);
  EXPECT_EQ(c.get_fast(raw, window), 4096u);
}

TEST(TcpFormat, BuildProducesClassifiablePacket) {
  const Codec& c = tcp_codec();
  Bytes raw = c.build("SYN", {{"src_port", 1234}, {"dst_port", 80}, {"seq", 999}});
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "SYN");
  EXPECT_EQ(c.get_fast(raw, *c.format().compiled("src_port")), 1234u);
  EXPECT_EQ(c.get_fast(raw, *c.format().compiled("dst_port")), 80u);
  EXPECT_EQ(c.get_fast(raw, *c.format().compiled("seq")), 999u);
  EXPECT_TRUE(verify_embedded_checksum(raw, 16));
  EXPECT_THROW(c.build("NOT-A-TYPE", {}), std::invalid_argument);
}

TEST(DccpFormat, LayoutAndTypes) {
  const HeaderFormat& f = dccp_format();
  EXPECT_EQ(f.header_bytes(), kDccpHeaderBytes);
  EXPECT_EQ(f.field_or_throw("seq").bit_width, 48u);
  EXPECT_EQ(f.field_or_throw("ack").bit_width, 48u);
  EXPECT_EQ(f.field_or_throw("type").kind, FieldKind::kType);

  const Codec& c = dccp_codec();
  const CompiledField& type = *c.format().compiled("type");
  Bytes raw(kDccpHeaderBytes, 0);
  c.set_fast(raw, type, kDccpRequest);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "DCCP-Request");
  c.set_fast(raw, type, kDccpSync);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "DCCP-Sync");
  c.set_fast(raw, type, kDccpReset);
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "DCCP-Reset");
  c.set_fast(raw, type, 15);  // undefined type code
  EXPECT_EQ(c.type_name(c.classify_index(raw)), "unknown");
}

TEST(DccpFormat, Seq48BitRoundTrip) {
  const Codec& c = dccp_codec();
  Bytes raw(kDccpHeaderBytes, 0);
  const CompiledField& seq = *c.format().compiled("seq");
  const CompiledField& ack = *c.format().compiled("ack");
  std::uint64_t big = 0xFFFFFFFFFFFFULL;  // max 48-bit
  c.set_fast(raw, seq, big);
  EXPECT_EQ(c.get_fast(raw, seq), big);
  c.set_fast(raw, ack, 0x123456789ABCULL);
  EXPECT_EQ(c.get_fast(raw, ack), 0x123456789ABCULL);
  EXPECT_EQ(c.get_fast(raw, seq), big);  // unchanged by neighbor write
}

TEST(Codec, TruncatesToFieldWidth) {
  const Codec& c = tcp_codec();
  Bytes raw(kTcpHeaderBytes, 0);
  const CompiledField& window = *c.format().compiled("window");
  c.set_fast(raw, window, 0x1FFFF);  // 17 bits into 16-bit field
  EXPECT_EQ(c.get_fast(raw, window), 0xFFFFu);
}

TEST(Codec, ClassifyTruncatedPacketIsUnknown) {
  EXPECT_EQ(tcp_codec().classify_index(Bytes(10, 0)), -1);
  EXPECT_EQ(dccp_codec().classify_index(Bytes(3, 0)), -1);
}

// Property test: randomized field round-trips through both codecs never
// corrupt neighbouring fields and always leave a valid checksum.
class CodecRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CodecRoundTrip, TcpRandomFieldWrites) {
  snake::Rng rng(GetParam());
  const Codec& c = tcp_codec();
  Bytes raw(kTcpHeaderBytes, 0);
  std::map<std::string, std::uint64_t> shadow;
  for (const auto& f : c.format().fields()) shadow[f.name] = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto& fields = c.format().fields();
    const std::size_t i = rng.uniform(0, fields.size() - 1);
    const FieldSpec& f = fields[i];
    if (f.kind == FieldKind::kChecksum) continue;
    std::uint64_t value = rng.next_u64() & f.max_value();
    c.set_fast(raw, c.format().compiled_at(i), value);
    shadow[f.name] = value;
    for (std::size_t j = 0; j < fields.size(); ++j) {
      const FieldSpec& g = fields[j];
      if (g.kind == FieldKind::kChecksum) continue;
      EXPECT_EQ(c.get_fast(raw, c.format().compiled_at(j)), shadow[g.name]) << "field " << g.name;
    }
    EXPECT_TRUE(verify_embedded_checksum(raw, *c.format().checksum_offset()));
  }
}

TEST_P(CodecRoundTrip, DccpRandomFieldWrites) {
  snake::Rng rng(GetParam() + 1000);
  const Codec& c = dccp_codec();
  Bytes raw(kDccpHeaderBytes, 0);
  std::map<std::string, std::uint64_t> shadow;
  for (const auto& f : c.format().fields()) shadow[f.name] = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto& fields = c.format().fields();
    const std::size_t i = rng.uniform(0, fields.size() - 1);
    const FieldSpec& f = fields[i];
    if (f.kind == FieldKind::kChecksum) continue;
    std::uint64_t value = rng.next_u64() & f.max_value();
    c.set_fast(raw, c.format().compiled_at(i), value);
    shadow[f.name] = value;
    for (std::size_t j = 0; j < fields.size(); ++j) {
      const FieldSpec& g = fields[j];
      if (g.kind == FieldKind::kChecksum) continue;
      EXPECT_EQ(c.get_fast(raw, c.format().compiled_at(j)), shadow[g.name]) << "field " << g.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Compiled accessors: the fixed-offset fast path must agree with a
// name-keyed reference bit-for-bit — reads, writes (including the
// checksum-refresh policy), and classification — on arbitrary header bytes.
// The reference goes through each FieldSpec's bit offset and width and
// resolves every packet type's discriminator by name.

std::string reference_classify(const HeaderFormat& f, const Bytes& raw) {
  if (raw.size() < f.header_bytes()) return "unknown";
  for (const PacketTypeSpec& t : f.packet_types()) {
    const FieldSpec& d = f.field_or_throw(t.discriminator_field);
    if ((read_bits(raw, d.bit_offset, d.bit_width) & t.match_mask) == t.match_value) return t.name;
  }
  return "unknown";
}

Bytes random_header(snake::Rng& rng, std::size_t n) {
  Bytes raw(n, 0);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
  return raw;
}

void expect_compiled_matches_reference(const Codec& c, snake::Rng& rng) {
  const HeaderFormat& f = c.format();
  for (int iter = 0; iter < 200; ++iter) {
    Bytes raw = random_header(rng, f.header_bytes());
    // Reads: every field through both paths.
    for (std::size_t i = 0; i < f.fields().size(); ++i) {
      const FieldSpec& spec = f.fields()[i];
      const CompiledField* cf = f.compiled(spec.name);
      ASSERT_NE(cf, nullptr) << spec.name;
      EXPECT_EQ(cf->index, f.compiled_at(i).index);
      EXPECT_EQ(c.get_fast(raw, *cf), read_bits(raw, spec.bit_offset, spec.bit_width))
          << spec.name;
    }
    // Classification: index path names the same type as the reference.
    EXPECT_EQ(f.type_name(c.classify_index(raw)), reference_classify(f, raw));
    // Writes: same value through both paths gives byte-identical headers
    // (set_fast must also refresh the embedded checksum).
    const auto& fields = f.fields();
    const FieldSpec& target = fields[rng.uniform(0, fields.size() - 1)];
    std::uint64_t value = rng.next_u64();
    Bytes via_name = raw;
    Bytes via_compiled = raw;
    write_bits(via_name, target.bit_offset, target.bit_width, value & target.max_value());
    if (target.kind != FieldKind::kChecksum) c.refresh_checksum(via_name);
    c.set_fast(via_compiled, *f.compiled(target.name), value & target.max_value());
    EXPECT_EQ(via_compiled, via_name) << "field " << target.name;
  }
}

TEST(CompiledCodec, MatchesNameKeyedCodecOnTcp) {
  snake::Rng rng(42);
  expect_compiled_matches_reference(tcp_codec(), rng);
}

TEST(CompiledCodec, MatchesNameKeyedCodecOnDccp) {
  snake::Rng rng(43);
  expect_compiled_matches_reference(dccp_codec(), rng);
}

TEST(CompiledCodec, WindowAccessHandlesUnalignedCrossByteFields) {
  // No byte-aligned shapes at all: every field exercises the kWindow path.
  HeaderFormat f = parse_header_format(
      "header odd 6 {\n"
      "  a : 3;\n"
      "  b : 13;\n"
      "  c : 7;\n"
      "  d : 20;\n"
      "  e : 5;\n"
      "}\n");
  snake::Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes raw = random_header(rng, f.header_bytes());
    for (std::size_t i = 0; i < f.fields().size(); ++i) {
      const FieldSpec& spec = f.fields()[i];
      EXPECT_EQ(f.read(raw, f.compiled_at(i)), read_bits(raw, spec.bit_offset, spec.bit_width))
          << spec.name;
      std::uint64_t value = rng.next_u64() & spec.max_value();
      Bytes via_bits = raw;
      write_bits(via_bits, spec.bit_offset, spec.bit_width, value);
      f.write(raw, f.compiled_at(i), value);
      EXPECT_EQ(raw, via_bits) << spec.name;
    }
  }
}

TEST(CompiledCodec, ClassifyIndexAgreesOnTruncatedAndUnknownPackets) {
  const Codec& c = tcp_codec();
  EXPECT_EQ(c.classify_index(Bytes(10, 0)), -1);
  EXPECT_EQ(c.type_name(-1), "unknown");
  Bytes raw(kTcpHeaderBytes, 0);
  c.set_fast(raw, *c.format().compiled("flags"), 0x3f);  // no type matches all-flags-set
  EXPECT_EQ(c.classify_index(raw), -1);
  EXPECT_EQ(reference_classify(c.format(), raw), "unknown");
}

TEST(Codec, BuildRejectsDiscriminatorInFieldsMap) {
  // A caller-supplied discriminator would silently overwrite the type tag
  // and build a different packet than the name asked for.
  EXPECT_THROW(tcp_codec().build("SYN", {{"flags", 0x10}}), std::invalid_argument);
  EXPECT_THROW(dccp_codec().build("DCCP-Ack", {{"type", 0}}), std::invalid_argument);
  // Non-discriminator fields still pass through.
  Bytes raw = tcp_codec().build("SYN", {{"seq", 123}});
  EXPECT_EQ(tcp_codec().type_name(tcp_codec().classify_index(raw)), "SYN");
  EXPECT_EQ(tcp_codec().get_fast(raw, *tcp_format().compiled("seq")), 123u);
}

TEST(FormatDsl, RejectsMisalignedOrNon16BitChecksum) {
  EXPECT_THROW(parse_header_format("header x 4 {\n a : 4;\n checksum : 16 checksum;\n b : 12;\n}\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_header_format("header x 4 {\n checksum : 8 checksum;\n a : 24;\n}\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_header_format("header x 6 {\n a : 8;\n checksum : 32 checksum;\n b : 8;\n}\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace snake::packet
