#include "util/strings.h"

#include "util/time.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace snake {

std::vector<std::string> split(const std::string& text, char delimiter) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(delimiter, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() && text.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string to_lower(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
  }
  return v;
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string format_seconds(double seconds) { return str_format("%.6fs", seconds); }

}  // namespace snake
