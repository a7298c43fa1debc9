#ifndef STREAMHIST_TESTS_TEST_DIR_H_
#define STREAMHIST_TESTS_TEST_DIR_H_

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace streamhist {

/// A fresh directory of one test's own under ::testing::TempDir(), named
/// after the running test plus a mkdtemp suffix, and removed with
/// everything in it on destruction. gtest_discover_tests runs every TEST as
/// its own process, so under `ctest -j` a fixed file name directly under
/// TempDir() is shared by tests running at the same time.
class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        info == nullptr
            ? std::string("streamhist")
            : std::string(info->test_suite_name()) + "." + info->name();
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized tests
    std::string base = ::testing::TempDir();
    if (!base.empty() && base.back() != '/') base.push_back('/');
    std::vector<char> templ(base.begin(), base.end());
    templ.insert(templ.end(), name.begin(), name.end());
    for (char c : std::string_view(".XXXXXX")) templ.push_back(c);
    templ.push_back('\0');
    if (::mkdtemp(templ.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed under " << base;
      return;
    }
    path_.assign(templ.data());
  }

  ~TestDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::string& path() const { return path_; }

  /// `name` inside this directory.
  std::string File(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace streamhist

#endif  // STREAMHIST_TESTS_TEST_DIR_H_
