#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "common/error.hpp"

namespace deepbat {

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
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
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
  const char* end = text.data() + text.size();
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  DEEPBAT_CHECK(digits && ec == std::errc() && ptr == end && value >= 1 &&
                    value <= max,
                std::string(what) + ": expected a whole positive integer <= " +
                    std::to_string(max) + ", got '" + std::string(text) + "'");
  return value;
}

}  // namespace deepbat
