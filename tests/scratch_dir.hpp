#pragma once
// Per-test scratch files. ctest runs every discovered gtest case as its own
// process, in parallel under -j, so a fixed name under the system temp dir
// is shared by every case (and every concurrent run) that uses it: one
// case's cleanup deletes the file another case is still reading.
// scratch_path() instead places each file in a directory private to the
// running test case, keyed by the case's full name and the process id, and
// the process removes every directory it made when it exits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace deepbat::test {

namespace detail {

/// Directories this process created; removed (with their contents) at exit.
class ScratchRegistry {
 public:
  ~ScratchRegistry() {
    std::error_code ec;
    for (const auto& dir : dirs_) std::filesystem::remove_all(dir, ec);
  }

  const std::filesystem::path& adopt(std::filesystem::path dir) {
    std::lock_guard<std::mutex> lock(mu_);
    return *dirs_.insert(std::move(dir)).first;
  }

 private:
  std::mutex mu_;
  std::set<std::filesystem::path> dirs_;
};

inline ScratchRegistry& scratch_registry() {
  static ScratchRegistry registry;
  return registry;
}

}  // namespace detail

/// The running test case's private directory,
/// <temp>/deepbat-<Suite.Name>-<pid>, created on first use. Characters
/// outside [A-Za-z0-9._-] in the name (the '/' of parameterized cases) map
/// to '_'.
inline std::filesystem::path scratch_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = info != nullptr ? std::string(info->test_suite_name()) +
                                          "." + info->name()
                                    : std::string("no_test");
  for (char& c : key) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) == 0 && c != '.' && c != '_' && c != '-') c = '_';
  }
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("deepbat-" + key + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return detail::scratch_registry().adopt(std::move(dir));
}

/// Path of `file` inside scratch_dir().
inline std::string scratch_path(std::string_view file) {
  return (scratch_dir() / file).string();
}

}  // namespace deepbat::test
