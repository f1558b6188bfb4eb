// Strict command-line parsing shared by the bench binaries.
//
// A bench declares every flag it accepts and where the value goes, then
// calls parse(). Parsing stops at the first bad argument and prints
// "<program>: <flag>: <reason>" to stderr: an unknown flag, a flag missing
// its value, a number that does not parse completely or lies outside its
// range, or a word outside a flag's fixed choices. The bench then exits with
// status 2, so a typo can never run a different benchmark than the one
// asked for.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace snake::bench {

class Cli {
 public:
  explicit Cli(const char* program) : program_(program) {}

  /// A flag without a value; sets `out`.
  Cli& flag(const char* name, bool& out) {
    return flag(name, [&out] { out = true; });
  }

  /// A flag without a value; runs `on` when given.
  Cli& flag(const char* name, std::function<void()> on) {
    return add(name, false, [on = std::move(on)](std::string_view) {
      on();
      return std::string();
    });
  }

  /// A free-form value, stored as given (argv outlives the bench).
  Cli& text(const char* name, const char*& out) {
    return add(name, true, [&out](std::string_view v) {
      out = v.data();
      return std::string();
    });
  }

  /// An integer value in [lo, hi].
  template <typename Int>
  Cli& integer(const char* name, Int& out, Int lo = std::numeric_limits<Int>::min(),
               Int hi = std::numeric_limits<Int>::max()) {
    return add(name, true, [&out, lo, hi](std::string_view v) {
      Int parsed{};
      auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
      if (ec != std::errc() || end != v.data() + v.size() || parsed < lo || parsed > hi)
        return "expected an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
               "], got '" + std::string(v) + "'";
      out = parsed;
      return std::string();
    });
  }

  /// A finite number in [lo, hi].
  Cli& number(const char* name, double& out, double lo, double hi) {
    return add(name, true, [&out, lo, hi](std::string_view v) {
      double parsed = 0.0;
      auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), parsed);
      if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(parsed) ||
          parsed < lo || parsed > hi) {
        char range[64];
        std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
        return "expected a number in " + std::string(range) + ", got '" + std::string(v) +
               "'";
      }
      out = parsed;
      return std::string();
    });
  }

  /// One word out of `choices`, mapped to its value.
  template <typename T>
  Cli& choice(const char* name, T& out, std::vector<std::pair<std::string, T>> choices) {
    return add(name, true, [&out, choices = std::move(choices)](std::string_view v) {
      std::string words;
      for (const auto& [word, value] : choices) {
        if (word == v) {
          out = value;
          return std::string();
        }
        words += (words.empty() ? "" : "|") + word;
      }
      return "expected " + words + ", got '" + std::string(v) + "'";
    });
  }

  /// A value checked and stored by `apply`, which returns an error message,
  /// or "" when the value is good.
  Cli& custom(const char* name, std::function<std::string(std::string_view)> apply) {
    return add(name, true, std::move(apply));
  }

  /// Parses argv[1..argc). Returns false after printing the first error.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const Option* option = nullptr;
      for (const Option& o : options_)
        if (o.name == arg) option = &o;
      if (option == nullptr) return fail(arg, "unknown flag");
      std::string error;
      if (option->takes_value) {
        if (i + 1 >= argc) return fail(arg, "missing value");
        error = option->apply(argv[++i]);
      } else {
        error = option->apply({});
      }
      if (!error.empty()) return fail(arg, error);
      given_.insert(option->name);
    }
    return true;
  }

  /// Whether parse() saw `name`.
  bool given(std::string_view name) const { return given_.count(std::string(name)) > 0; }

 private:
  struct Option {
    std::string name;
    bool takes_value = false;
    std::function<std::string(std::string_view)> apply;
  };

  Cli& add(const char* name, bool takes_value,
           std::function<std::string(std::string_view)> apply) {
    options_.push_back(Option{name, takes_value, std::move(apply)});
    return *this;
  }

  bool fail(std::string_view flag, const std::string& reason) const {
    std::fprintf(stderr, "%s: %.*s: %s\n", program_, static_cast<int>(flag.size()),
                 flag.data(), reason.c_str());
    return false;
  }

  const char* program_;
  std::vector<Option> options_;
  std::set<std::string> given_;
};

}  // namespace snake::bench
