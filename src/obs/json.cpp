#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace snake::obs {

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  std::size_t run = 0;  // start of the pending run of characters copied as-is
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(text.substr(run));
  return out;
}

void JsonWriter::flush() {
  if (!sink_ || out_.empty()) return;
  sink_(out_);
  out_.clear();
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan
    return *this;
  }
  // Round-trippable: checkpoint journals replay these values into exact
  // equality comparisons, so the parsed double must equal the written one.
  // %.15g keeps common values short; fall back to %.17g when it loses bits.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view pre_rendered) {
  before_value();
  out_ += pre_rendered;
  return *this;
}

const JsonValue* JsonValue::find(const std::string& k) const {
  if (!is_object()) return nullptr;
  auto it = object_v.find(k);
  return it == object_v.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}
  static constexpr int kMaxDepth = kJsonMaxDepth;

  std::optional<JsonValue> run() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty())
      *error_ = "offset " + std::to_string(pos_) + ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected string");
      return false;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            if (!hex4(code)) return false;
            // Surrogate pairs (fuzz hardening): a high surrogate must be
            // followed by \uDC00-\uDFFF; the pair combines into one
            // supplementary code point. A lone surrogate is not a code point
            // at all — emit U+FFFD instead of fabricating invalid UTF-8.
            std::uint32_t cp = code;
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                std::size_t saved = pos_;
                pos_ += 2;
                unsigned low = 0;
                if (!hex4(low)) return false;
                if (low >= 0xDC00 && low <= 0xDFFF) {
                  cp = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                } else {
                  pos_ = saved;  // not a low surrogate: re-scan it normally
                  cp = 0xFFFD;
                }
              } else {
                cp = 0xFFFD;
              }
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              cp = 0xFFFD;  // lone low surrogate
            }
            append_utf8(out, cp);
            break;
          }
          default:
            fail("bad escape");
            return false;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool hex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else {
        fail("bad \\u escape");
        return false;
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// Scans a JSON number (RFC 8259 grammar) starting at pos_ and converts
  /// the validated slice through strtod on a NUL-terminated copy. strtod on
  /// the raw view was doubly wrong: it reads past a string_view that is not
  /// NUL-terminated (out-of-bounds read on a fuzzed buffer), and it accepts
  /// "inf", "nan" and hex floats that JSON forbids.
  bool parse_number(JsonValue& out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    std::size_t int_digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++int_digits;
    }
    if (int_digits == 0) {
      pos_ = start;
      fail("expected value");
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t frac_digits = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++frac_digits;
      }
      if (frac_digits == 0) {
        fail("digits required after decimal point");
        return false;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      std::size_t exp_digits = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exp_digits;
      }
      if (exp_digits == 0) {
        fail("digits required in exponent");
        return false;
      }
    }
    std::string slice(text_.substr(start, pos_ - start));
    out.type = JsonValue::Type::kNumber;
    out.num_v = std::strtod(slice.c_str(), nullptr);  // overflow → ±inf, fine
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    if (depth_ >= kMaxDepth) {
      // Fuzz hardening: unbounded recursion on "[[[[..." overflowed the
      // stack before any other limit applied.
      fail("nesting too deep");
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      ++depth_;
      out.type = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) {
        --depth_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string k;
        if (!parse_string(k)) return false;
        if (!consume(':')) {
          fail("expected ':'");
          return false;
        }
        JsonValue v;
        if (!parse_value(v)) return false;
        out.object_v.emplace(std::move(k), std::move(v));
        if (consume(',')) continue;
        if (consume('}')) {
          --depth_;
          return true;
        }
        fail("expected ',' or '}'");
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      ++depth_;
      out.type = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) {
        --depth_;
        return true;
      }
      while (true) {
        JsonValue v;
        if (!parse_value(v)) return false;
        out.array_v.push_back(std::move(v));
        if (consume(',')) continue;
        if (consume(']')) {
          --depth_;
          return true;
        }
        fail("expected ',' or ']'");
        return false;
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.str_v);
    }
    if (literal("true")) {
      out.type = JsonValue::Type::kBool;
      out.bool_v = true;
      return true;
    }
    if (literal("false")) {
      out.type = JsonValue::Type::kBool;
      out.bool_v = false;
      return true;
    }
    if (literal("null")) {
      out.type = JsonValue::Type::kNull;
      return true;
    }
    return parse_number(out);
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

std::optional<std::uint64_t> u64_of(const JsonValue& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.num_v;
  if (!(d >= 0.0) || d >= 18446744073709551616.0) return std::nullopt;  // !(>=0) catches NaN
  return static_cast<std::uint64_t>(d);
}

std::uint64_t u64_field(const JsonValue& obj, const char* key, std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? u64_of(*v).value_or(fallback) : fallback;
}

std::int64_t i64_field(const JsonValue& obj, const char* key, std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double d = v->num_v;
  if (!(d >= -9223372036854775808.0) || d >= 9223372036854775808.0) return fallback;
  return static_cast<std::int64_t>(d);
}

double num_field(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->number_or(fallback) : fallback;
}

bool bool_field(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() ? v->bool_v : fallback;
}

std::string str_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->str_v : std::string();
}

}  // namespace snake::obs
