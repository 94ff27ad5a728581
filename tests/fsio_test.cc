#include "common/fsio.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/require.h"

namespace dct {
namespace {

namespace fs = std::filesystem;

class FsioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dct_fsio_test_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::size_t tmp_files() const {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".tmp") ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(FsioTest, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 0xff, 0x80, 0};
  const std::string path = (dir_ / "blob.bin").string();
  atomic_write_file(path, std::span(bytes.data(), bytes.size()));
  EXPECT_EQ(read_file_bytes(path), bytes);
  EXPECT_EQ(tmp_files(), 0u) << "temp file left behind after rename";
}

TEST_F(FsioTest, TextOverloadAndOverwrite) {
  const std::string path = (dir_ / "out.csv").string();
  atomic_write_file(path, std::string_view("first,version\n"));
  // Overwrite replaces the whole file — never appends, never truncates to a
  // partial mix of old and new.
  atomic_write_file(path, std::string_view("second\n"));
  const auto back = read_file_bytes(path);
  EXPECT_EQ(std::string(back.begin(), back.end()), "second\n");
  EXPECT_EQ(tmp_files(), 0u);
}

TEST_F(FsioTest, EmptyContentProducesEmptyFile) {
  const std::string path = (dir_ / "empty.bin").string();
  atomic_write_file(path, std::string_view(""));
  EXPECT_TRUE(read_file_bytes(path).empty());
  EXPECT_TRUE(fs::exists(path));
}

TEST_F(FsioTest, CreatesMissingParentDirectories) {
  const std::string path = (dir_ / "a" / "b" / "deep.txt").string();
  atomic_write_file(path, std::string_view("x"));
  EXPECT_EQ(read_file_bytes(path).size(), 1u);
}

TEST_F(FsioTest, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_file_bytes((dir_ / "nope").string()), Error);
  // A directory opens as a stream but cannot be read.
  EXPECT_THROW((void)read_file_bytes(dir_.string()), Error);
}

}  // namespace
}  // namespace dct
