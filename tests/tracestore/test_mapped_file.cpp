#include "gmd/tracestore/mapped_file.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "gmd/common/error.hpp"

namespace gmd::tracestore {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/gmd_map_" + std::to_string(::getpid()) + "_" +
         name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

TEST(MappedFile, ExposesFileBytes) {
  const auto path = temp_path("basic.bin");
  write_file(path, "hello mapping");
  MappedFile file(path);
  ASSERT_TRUE(file.is_open());
  ASSERT_EQ(file.size(), 13u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(file.data()),
                        file.size()),
            "hello mapping");
  EXPECT_EQ(file.path(), path);
  std::remove(path.c_str());
}

TEST(MappedFile, EmptyFileIsValidAndZeroLength) {
  const auto path = temp_path("empty.bin");
  write_file(path, "");
  MappedFile file(path);
  EXPECT_TRUE(file.is_open());
  EXPECT_EQ(file.size(), 0u);
  std::remove(path.c_str());
}

TEST(MappedFile, MissingFileThrowsIoError) {
  try {
    MappedFile file(temp_path("does_not_exist.bin"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST(MappedFile, MoveTransfersOwnership) {
  const auto path = temp_path("move.bin");
  write_file(path, "abc");
  MappedFile a(path);
  MappedFile b(std::move(a));
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move): post-move state
  ASSERT_TRUE(b.is_open());
  EXPECT_EQ(b.size(), 3u);

  MappedFile c(path);
  c = std::move(b);
  EXPECT_FALSE(b.is_open());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(c.is_open());
  EXPECT_EQ(c.view().size(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmd::tracestore
