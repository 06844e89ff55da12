// temp_path.h — temporary file names private to one test process.
//
// gtest_discover_tests registers every TEST as its own CTest entry, and
// `ctest -j` runs those processes side by side. A fixed name in the temp
// directory shared by two tests lets one process truncate a file another
// has mapped, so every file a test writes lives under
// `<temp>/cl_test_<pid>/<Suite>.<Test>/`. The file name itself stays as
// given, since some tests read a curve's name back from its file stem.
// The process's directory is removed when the test program ends.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace cl::test {

/// This process's private temp directory.
inline std::filesystem::path process_temp_dir() {
  return std::filesystem::temp_directory_path() /
         ("cl_test_" + std::to_string(::getpid()));
}

/// `<temp>/cl_test_<pid>/<Suite>.<Test>/<name>`; creates the directory.
inline std::string unique_temp_path(const std::string& name) {
  std::string test = "no_test";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
    std::replace(test.begin(), test.end(), '/', '_');  // parameterized
  }
  const std::filesystem::path dir = process_temp_dir() / test;
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

/// Removes the process's temp directory once every test has run.
class TempDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(process_temp_dir(), ignored);
  }
};

inline const ::testing::Environment* const kTempDirCleanup =
    ::testing::AddGlobalTestEnvironment(new TempDirCleanup);

}  // namespace cl::test
