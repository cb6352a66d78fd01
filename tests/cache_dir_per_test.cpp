// One chunk-cache directory per test, for env-driven disk-tier replays.
//
// CI replays whole suites with PRIVID_CACHE=shared and one
// PRIVID_CACHE_DIR, and every Privid facade attaches that directory as its
// disk tier. Across processes a cache key names an executable by name and
// registration count and a camera by id and content seed — not by the
// executable's code — so two tests that register different functions as
// `count` on camera `cam` would serve each other's slabs through a shared
// directory, and a test's result would depend on which tests ran before
// it. This listener, linked into every gtest binary, points each test at
// its own fresh subdirectory, <PRIVID_CACHE_DIR>/<Suite>.<Test>, before
// the test body runs. Without PRIVID_CACHE_DIR it does nothing.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

namespace {

class CacheDirPerTest : public ::testing::EmptyTestEventListener {
 public:
  void OnTestStart(const ::testing::TestInfo& info) override {
    if (!root_) {
      // Read once: from the second test on, the variable holds this
      // listener's own subdirectory (or nothing, if a suite unset it to
      // opt out of the env-driven tier).
      const char* dir = std::getenv("PRIVID_CACHE_DIR");
      root_ = dir != nullptr ? std::string(dir) : std::string();
    }
    if (root_->empty()) return;
    std::string leaf =
        std::string(info.test_suite_name()) + "." + info.name();
    for (char& c : leaf) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
          c != '-') {
        c = '_';
      }
    }
    const std::filesystem::path dir = std::filesystem::path(*root_) / leaf;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // a rerun starts cold too
    setenv("PRIVID_CACHE_DIR", dir.c_str(), 1);
  }

 private:
  std::optional<std::string> root_;
};

const bool g_cache_dir_per_test = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new CacheDirPerTest);
  return true;
}();

}  // namespace
