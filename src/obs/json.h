// Minimal JSON support for the observability layer: a streaming writer used
// to emit campaign/bench reports, and a small recursive-descent parser used
// by tests and tooling to validate those reports. No external dependencies —
// the reports must be writable from any layer of the system.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snake::obs {

/// Escapes a string for inclusion in a JSON string literal (no quotes added).
std::string json_escape(std::string_view text);

/// Streaming JSON writer with automatic comma placement. Usage:
///   JsonWriter w;
///   w.begin_object().key("n").value(3).key("xs").begin_array()
///    .value(1).value(2).end_array().end_object();
///   std::string doc = w.take();
class JsonWriter {
 public:
  /// Receives completed chunks of output in order; chunk boundaries carry no
  /// meaning (a chunk is whatever accumulated between flushes).
  using Sink = std::function<void(std::string_view)>;

  /// Buffered mode: everything accumulates until take()/str().
  JsonWriter() = default;

  /// Streaming mode: flush() (and the destructor) hand the buffered bytes to
  /// `sink` and clear them, so a report much larger than memory can be
  /// written incrementally — flush after each array element. The structural
  /// state (open containers, comma placement) survives flushes.
  explicit JsonWriter(Sink sink) : sink_(std::move(sink)) {}

  ~JsonWriter() { flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Pushes buffered output to the sink (no-op in buffered mode).
  void flush();

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& null_value();

  /// Embeds a pre-rendered JSON document as one value (no validation).
  JsonWriter& raw(std::string_view pre_rendered);

  /// Buffered-mode accessors: in streaming mode these only see bytes not
  /// yet flushed to the sink.
  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void before_value();

  std::string out_;
  Sink sink_;                      ///< empty in buffered mode
  std::vector<bool> needs_comma_;  ///< one flag per open container
  bool after_key_ = false;
};

/// Parsed JSON value. Numbers are kept as double (sufficient for reports).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> array_v;
  std::map<std::string, JsonValue> object_v;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
  double number_or(double fallback) const { return is_number() ? num_v : fallback; }
};

/// Maximum container nesting parse_json accepts. Every report and journal
/// this repo writes nests a handful of levels; the limit exists so a
/// malicious or corrupted document ("[[[[[...") cannot overflow the parser's
/// recursion stack (found by the codec fuzz suite, tests/fuzz_test.cpp).
inline constexpr int kJsonMaxDepth = 256;

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else). Returns nullopt on malformed input; `error`, when given, receives
/// a byte offset + message. Hardened against untrusted input: container
/// nesting is capped at kJsonMaxDepth, numbers follow the RFC 8259 grammar
/// exactly (no "inf"/"nan"/hex floats, no reads past `text`), and \u
/// surrogate pairs are combined (lone surrogates become U+FFFD).
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

// Lenient field readers, shared by every decoder of this repo's documents
// (trial-log lines, wire frames, run metrics, strategies). A missing key or
// a value of the wrong type yields the fallback. Numbers are range-checked
// before conversion: casting a NaN, negative or out-of-range double to an
// integer is undefined behaviour (fuzz-found via UBSan's float-cast-overflow
// on hand-corrupted journal lines). Checkpoint formats that must *reject*
// such values rather than default them keep their own strict readers.

/// A number in [0, 2^64), fraction truncated; nullopt otherwise.
std::optional<std::uint64_t> u64_of(const JsonValue& v);
std::uint64_t u64_field(const JsonValue& obj, const char* key, std::uint64_t fallback);
/// A number in [-2^63, 2^63), fraction truncated; the fallback otherwise.
std::int64_t i64_field(const JsonValue& obj, const char* key, std::int64_t fallback);
double num_field(const JsonValue& obj, const char* key, double fallback);
bool bool_field(const JsonValue& obj, const char* key, bool fallback);
/// The string value, or "" when absent or not a string.
std::string str_field(const JsonValue& obj, const char* key);

}  // namespace snake::obs
