/**
 * @file
 * A scratch directory private to the running test.
 *
 * gtest_discover_tests registers every TEST as its own ctest entry, and
 * `ctest -j` runs those processes side by side, so a fixed path under
 * testing::TempDir() is shared by every test of a fixture at once.
 * ScratchDir names the directory after the running test plus the pid,
 * creates it empty, and removes it when it goes out of scope.
 */

#ifndef TCSIM_TESTS_SCRATCH_DIR_H
#define TCSIM_TESTS_SCRATCH_DIR_H

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include <gtest/gtest.h>

namespace tcsim::testing_util
{

class ScratchDir
{
  public:
    ScratchDir()
    {
        const testing::TestInfo *info =
            testing::UnitTest::GetInstance()->current_test_info();
        std::string name = info != nullptr
                               ? std::string(info->test_suite_name()) +
                                     "." + info->name()
                               : "no_test";
        // Parameterized names carry '/'; keep one flat directory.
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '.' && c != '-') {
                c = '_';
            }
        }
        path_ = testing::TempDir() + "/tcsim_" + name + "_" +
                std::to_string(::getpid());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

    /** @return "<path>/<name>". */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace tcsim::testing_util

#endif // TCSIM_TESTS_SCRATCH_DIR_H
