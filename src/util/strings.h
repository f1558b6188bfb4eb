// Small string utilities shared by the DSL parsers and report formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snake {

/// Splits on a single-character delimiter; empty pieces are kept.
std::vector<std::string> split(const std::string& text, char delimiter);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& text);

bool starts_with(const std::string& text, const std::string& prefix);
bool ends_with(const std::string& text, const std::string& suffix);

/// Lowercases ASCII letters.
std::string to_lower(const std::string& text);

/// Sixteen lowercase hex digits. Hashes and checksums travel in JSON this
/// way: JSON numbers parse as doubles, which would round a 64-bit value.
std::string hex16(std::uint64_t v);
/// Inverse of hex16: exactly sixteen lowercase hex digits, else nullopt.
std::optional<std::uint64_t> parse_hex16(std::string_view text);

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace snake
