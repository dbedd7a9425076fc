#pragma once

/// \file scratch_dir.hpp
/// A private scratch directory per test. ctest runs every gtest case in its
/// own process, in parallel under `-j`, so a name built from a per-process
/// counter repeats across processes and one test's cleanup deletes
/// another's files. mkdtemp(3) picks a name no other process holds; the
/// destructor removes the whole tree.

#include <gtest/gtest.h>

#include <stdlib.h>  // mkdtemp

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace alert::test_support {

class ScratchDir {
 public:
  /// Creates `<gtest TempDir>/<tag>XXXXXX` with a unique suffix.
  explicit ScratchDir(const std::string& tag) {
    const std::string pattern =
        (std::filesystem::path(::testing::TempDir()) / (tag + "XXXXXX"))
            .string();
    std::vector<char> name(pattern.begin(), pattern.end());
    name.push_back('\0');
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + pattern);
    }
    path_ = name.data();
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace alert::test_support
