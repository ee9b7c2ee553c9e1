#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/tracestore/format.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::tracestore {
namespace {

using cpusim::MemoryEvent;

class GmdtCorruption : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/gmd_store_corrupt_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  /// Writes a healthy multi-chunk store and returns its path.
  std::string write_healthy(const std::string& name) {
    std::vector<MemoryEvent> events;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      events.push_back(MemoryEvent{i * 4, 0x1000 + i * 64, 64, i % 2 == 0});
    }
    const std::string file = path(name);
    TraceStoreWriterOptions options;
    options.events_per_chunk = 100;
    write_trace_store(file, events, options);
    return file;
  }

  std::string read_file(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& file, const std::string& content) {
    std::ofstream out(file, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }

  /// Expects opening (or fully reading) `file` to throw Error(kTrace)
  /// whose message contains `fragment`.
  void expect_rejected(const std::string& file, const std::string& fragment) {
    try {
      TraceStoreReader reader(file);
      reader.read_all();
      FAIL() << "expected Error mentioning '" << fragment << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kTrace) << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message was: " << e.what();
    }
  }

  std::string dir_;
};

TEST_F(GmdtCorruption, RejectsBadMagic) {
  const auto file = write_healthy("magic.gmdt");
  std::string bytes = read_file(file);
  bytes[0] = 'X';
  write_file(file, bytes);
  expect_rejected(file, "bad magic");
}

TEST_F(GmdtCorruption, RejectsUnsupportedVersion) {
  const auto file = write_healthy("version.gmdt");
  std::string bytes = read_file(file);
  bytes[8] = 99;  // version field
  // Recompute the header checksum so only the version is wrong.
  std::string patched_checksum;
  put_u64(patched_checksum, fnv1a_bytes(bytes.data(), 48));
  bytes.replace(48, 8, patched_checksum);
  write_file(file, bytes);
  expect_rejected(file, "unsupported GMDT version");
}

TEST_F(GmdtCorruption, RejectsHeaderChecksumFlip) {
  const auto file = write_healthy("hdrsum.gmdt");
  std::string bytes = read_file(file);
  bytes[20] ^= 0x01;  // inside event_count; checksum now stale
  write_file(file, bytes);
  expect_rejected(file, "header checksum mismatch");
}

TEST_F(GmdtCorruption, RejectsDirectoryChecksumFlip) {
  const auto file = write_healthy("dirsum.gmdt");
  std::string bytes = read_file(file);
  const std::uint64_t dir_offset = get_u64(
      reinterpret_cast<const unsigned char*>(bytes.data()) + 40);
  bytes[static_cast<std::size_t>(dir_offset) + 16] ^= 0x01;  // entry 0 count
  write_file(file, bytes);
  expect_rejected(file, "directory checksum mismatch");
}

TEST_F(GmdtCorruption, FlippedPayloadByteNamesTheChunk) {
  const auto file = write_healthy("payload.gmdt");
  std::string bytes = read_file(file);
  // Chunk 3's payload: find its offset in the directory.
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint64_t dir_offset = get_u64(base + 40);
  const std::uint64_t chunk3_offset =
      get_u64(base + dir_offset + 3 * kDirEntryBytes);
  bytes[static_cast<std::size_t>(chunk3_offset) + 5] ^= 0x10;
  write_file(file, bytes);
  expect_rejected(file, "chunk 3 checksum mismatch (corrupted payload)");
}

TEST_F(GmdtCorruption, RejectsTruncationAtEveryBoundary) {
  const auto file = write_healthy("trunc.gmdt");
  const std::string bytes = read_file(file);
  // Mid-header, mid-payload, and mid-directory truncations.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, kHeaderBytes - 1, kHeaderBytes + 10,
        bytes.size() / 2, bytes.size() - 1}) {
    const auto truncated = path("trunc_cut.gmdt");
    write_file(truncated, bytes.substr(0, keep));
    try {
      TraceStoreReader reader(truncated);
      reader.read_all();
      FAIL() << "accepted a store truncated to " << keep << " bytes";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kTrace) << keep << ": " << e.what();
    }
  }
}

TEST_F(GmdtCorruption, UnclosedWriterNeverPublishesTheTarget) {
  const auto file = path("unclosed.gmdt");
  {
    TraceStoreWriter writer(file);
    writer.on_event(MemoryEvent{1, 64, 8, false});
    // Mid-write (a crash here): only `<path>.tmp` exists — the target
    // is published whole by close()'s rename or not at all.
    EXPECT_FALSE(std::filesystem::exists(file));
    ASSERT_TRUE(std::filesystem::exists(writer.temp_path()));
    // Even if a reader were pointed at a snapshot of the in-progress
    // temp file, it is rejectable: at best a placeholder header with a
    // failing checksum, at worst short (defense in depth).
    std::ifstream in(writer.temp_path(), std::ios::binary);
    const std::string partial{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    write_file(path("crashed.gmdt"), partial);
    writer.close();
  }
  EXPECT_THROW(TraceStoreReader(path("crashed.gmdt")), Error);
  // The properly closed file is fine, and its temp is gone.
  EXPECT_EQ(TraceStoreReader(file).num_events(), 1u);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

TEST_F(GmdtCorruption, RejectsAbsurdChunkCountBeforeAllocating) {
  const auto file = write_healthy("absurd.gmdt");
  std::string bytes = read_file(file);
  // chunk_count = 2^56: would overflow dir_bytes and exhaust memory if
  // the reader resized first.
  bytes[31] = 1;  // big-endian-most byte of the LE chunk_count field
  std::string patched_checksum;
  put_u64(patched_checksum, fnv1a_bytes(bytes.data(), 48));
  bytes.replace(48, 8, patched_checksum);
  write_file(file, bytes);
  expect_rejected(file, "more than the file could hold");
}

}  // namespace
}  // namespace gmd::tracestore
