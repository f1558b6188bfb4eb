// TCP segment: the typed view the endpoints work with, plus wire
// serialization matching the DSL layout in src/packet/tcp_format.h (the
// proxy manipulates segments in wire form, the endpoints in typed form;
// parse/serialize round-trips between the two).
//
// Options are real wire bytes in [20, data_offset*4): kind-4 SACK-permitted
// on SYNs, kind-5 SACK blocks on ACKs (RFC 2018/2883), NOP-padded to 32-bit
// alignment. The whole-buffer checksum covers them, and the compiled codec's
// fixed-offset accessors are unaffected because every DSL field lives in the
// 20-byte fixed part. The sack_flag/dsack_flag reserved bits mirror the
// option content so per-packet classification stays option-blind.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "tcp/seq.h"
#include "util/bytes.h"

namespace snake::tcp {

/// One SACK block: received bytes [start, end) above the cumulative ACK —
/// or, for a leading DSACK block (RFC 2883), a duplicate range at or below
/// it.
struct SackBlock {
  Seq start = 0;
  Seq end = 0;

  bool operator==(const SackBlock& other) const {
    return start == other.start && end == other.end;
  }
};

/// A segment's SACK blocks. The kMaxBlocks one kind-5 option carries live
/// inline, so parsing or building an ACK allocates nothing; a longer list —
/// only ever built by hand, and cut to the limit by serialization — moves
/// to the heap.
class SackBlockList {
 public:
  static constexpr std::size_t kMaxBlocks = 4;
  using value_type = SackBlock;
  using const_iterator = const SackBlock*;
  using iterator = const_iterator;

  SackBlockList() = default;
  SackBlockList(std::initializer_list<SackBlock> blocks) {
    for (const SackBlock& b : blocks) push_back(b);
  }

  void push_back(const SackBlock& block) {
    if (size_ < kMaxBlocks) {
      inline_[size_++] = block;
      return;
    }
    if (size_ == kMaxBlocks) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(block);
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const SackBlock* data() const { return size_ > kMaxBlocks ? spill_.data() : inline_.data(); }
  const SackBlock* begin() const { return data(); }
  const SackBlock* end() const { return data() + size_; }
  const SackBlock& operator[](std::size_t i) const { return data()[i]; }

  bool operator==(const SackBlockList& other) const { return std::ranges::equal(*this, other); }

 private:
  std::array<SackBlock, kMaxBlocks> inline_{};
  std::vector<SackBlock> spill_;  ///< every block, once there are more than kMaxBlocks
  std::size_t size_ = 0;
};

struct Segment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Seq seq = 0;
  Seq ack = 0;
  std::uint8_t flags = 0;  // TcpFlag bits
  std::uint16_t window = 0;
  std::uint16_t urgent_ptr = 0;

  /// Model extension in the `reserved` header bits: DSACK indication. Real
  /// stacks carry this as a SACK option (RFC 2883); we also surface it as one
  /// header bit so option-free profiles keep their 20-byte headers. Set by a
  /// receiver whose ACK was triggered by a fully-duplicate segment.
  bool dsack = false;

  /// SACK-permitted option (kind 4) — SYN/SYN+ACK negotiation, RFC 2018 §2.
  bool sack_permitted = false;

  /// SACK blocks (kind 5), most recently changed first per RFC 2018 §4; a
  /// DSACK-emitting profile puts the duplicate range in blocks[0] (RFC 2883).
  /// At most kMaxSackBlocks survive serialization.
  SackBlockList sack_blocks;

  /// A parsed segment's payload is a view into the buffer it was parsed
  /// from; an endpoint's outgoing payload is a view into its send queue.
  Payload payload;

  static constexpr std::size_t kMaxSackBlocks = SackBlockList::kMaxBlocks;

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  /// Sequence space consumed: payload plus one for SYN and one for FIN.
  std::uint32_t seq_len() const;

  /// Option bytes this segment serializes to (NOP padding included).
  std::size_t option_bytes() const;

  /// Human-readable one-liner for traces: "SYN seq=1 ack=0 len=0".
  std::string summary() const;
};

/// Serializes to the header (20 bytes + options) + payload wire format with
/// a valid checksum; data_offset accounts for the option bytes.
Bytes serialize(const Segment& segment);

/// Serializes into `out` (cleared first), reusing its capacity: the header,
/// then the payload copied straight from wherever the segment's view points
/// (for an endpoint, its send queue). The endpoint hot path feeds this
/// recycled buffers from the scenario's sim::BufferPool, so steady-state
/// sends allocate nothing.
void serialize_into(const Segment& segment, Bytes& out);

/// Parses wire bytes; returns std::nullopt for truncated input, a bad
/// checksum, or malformed options (the receiving stack drops such packets
/// silently). The payload is a view into `raw`, valid while `raw` lives
/// unchanged: a stack parses the packet it is delivering, whose buffer goes
/// back to the pool only after the endpoint's on_segment returns.
std::optional<Segment> parse_segment(const Bytes& raw);
/// A view into a temporary would dangle: bind the bytes to a name first.
std::optional<Segment> parse_segment(Bytes&& raw) = delete;

}  // namespace snake::tcp
