#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace deepbat {

namespace {

/// True when std::from_chars reads all of `text`, which is not empty, into
/// `value`.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    DEEPBAT_CHECK(arg.rfind("--", 0) == 0, "flags must start with --: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  std::int64_t value = 0;
  DEEPBAT_CHECK(parse_whole(text, value),
                "--" + name + ": expected a whole integer, got '" + text +
                    "'");
  return value;
}

std::int64_t CliFlags::get_int_in_range(const std::string& name,
                                        std::int64_t fallback,
                                        std::int64_t min,
                                        std::int64_t max) const {
  const std::int64_t value = get_int(name, fallback);
  DEEPBAT_CHECK(value >= min && value <= max,
                "--" + name + ": expected a whole integer in [" +
                    std::to_string(min) + ", " + std::to_string(max) +
                    "], got " + std::to_string(value));
  return value;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  DEEPBAT_CHECK(parse_whole(text, value) && std::isfinite(value),
                "--" + name + ": expected a finite number, got '" + text +
                    "'");
  return value;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw Error("--" + name + ": expected true|false|1|0|yes|no, got '" + text +
              "'");
}

void CliFlags::check_known(std::initializer_list<const char*> allowed) const {
  for (const auto& [key, value] : values_) {
    (void)value;
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&](const char* a) { return key == a; });
    DEEPBAT_CHECK(known, "unknown flag --" + key);
  }
}

std::int64_t parse_positive_int(std::string_view text, std::string_view what,
                                std::int64_t max) {
  std::int64_t value = 0;
  const bool digits = std::all_of(text.begin(), text.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  DEEPBAT_CHECK(digits && parse_whole(text, value) && value >= 1 &&
                    value <= max,
                std::string(what) + ": expected a whole positive integer <= " +
                    std::to_string(max) + ", got '" + std::string(text) + "'");
  return value;
}

}  // namespace deepbat
