#pragma once
// Minimal command-line flag parser for examples and bench binaries.
// Supports `--name value` and `--name=value`; unknown flags are an error so
// typos surface immediately.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace deepbat {

class CliFlags {
 public:
  /// Parse argv. Throws deepbat::Error on malformed input.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// The typed getters return `fallback` for an absent flag and throw
  /// deepbat::Error naming the flag unless its whole value parses:
  /// get_int a decimal integer (optional '-', no '+', space or suffix),
  /// get_double a finite decimal number, get_bool one of
  /// true|false|1|0|yes|no (a bare flag reads as true).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Error out unless every provided flag is in `allowed` (comma-separated
  /// documentation string is the caller's problem; this takes a set-like
  /// initializer).
  void check_known(std::initializer_list<const char*> allowed) const;

 private:
  std::map<std::string, std::string> values_;
};

/// `text` as a whole positive decimal integer token (digits only, no sign
/// or whitespace, 1 <= value <= max). Throws deepbat::Error naming `what`
/// otherwise.
std::int64_t parse_positive_int(std::string_view text, std::string_view what,
                                std::int64_t max = INT64_MAX);

}  // namespace deepbat
