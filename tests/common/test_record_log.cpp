/// RecordLog contract: linear appends, checksummed lines, one torn-tail
/// rule (a writer truncates back to the longest valid prefix with a
/// typed warning; a read-only scan never truncates and skips an
/// unterminated last line silently), payloads with newlines round-trip.

#include "gmd/common/record_log.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/logging.hpp"

namespace gmd {
namespace {

namespace fs = std::filesystem;

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gmd_record_log_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "test.log").string();
  }
  void TearDown() override {
    log::set_sink(nullptr);
    faultinject::clear();
    fs::remove_all(dir_);
  }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void spill(const std::string& content) const {
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << content;
  }
  void capture_warnings() {
    warnings_.clear();
    log::set_sink([this](log::Level level, std::string_view msg) {
      if (level == log::Level::kWarn) warnings_.emplace_back(msg);
    });
  }

  /// Writes header + `records` through a fresh log; returns the bytes.
  std::string write_log(const std::vector<std::string>& records) {
    RecordLog log(path_, "test-log v1");
    for (const std::string& record : records) log.append(record);
    return slurp();
  }

  /// Byte offset where each line ends (one past its newline).
  static std::vector<std::size_t> line_ends(const std::string& bytes) {
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] == '\n') ends.push_back(i + 1);
    }
    return ends;
  }

  fs::path dir_;
  std::string path_;
  std::vector<std::string> warnings_;
};

TEST_F(RecordLogTest, MissingFileScansAsNullopt) {
  EXPECT_FALSE(scan_record_log(path_).has_value());
}

TEST_F(RecordLogTest, NAppendsLeaveExactlyHeaderPlusNLines) {
  // Linear I/O: the file is the header line plus one line per append,
  // nothing rewritten.  Every prefix of the appends is a prefix of the
  // final file.
  RecordLog log(path_, "test-log v1");
  std::uint64_t previous = 0;
  std::string previous_bytes;
  for (int i = 0; i < 50; ++i) {
    log.append("record " + std::to_string(i));
    const std::string bytes = slurp();
    EXPECT_GT(bytes.size(), previous);
    EXPECT_EQ(bytes.compare(0, previous_bytes.size(), previous_bytes), 0)
        << "append " << i << " rewrote earlier bytes";
    previous = bytes.size();
    previous_bytes = bytes;
  }
  const std::string bytes = slurp();
  EXPECT_EQ(line_ends(bytes).size(), 51u);
  EXPECT_EQ(line_ends(bytes).back(), bytes.size());
  EXPECT_EQ(log.size(), 50u);

  const auto scan = scan_record_log(path_);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->records.size(), 51u);
  EXPECT_EQ(scan->records[0], "test-log v1");
  EXPECT_EQ(scan->records[50], "record 49");
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  EXPECT_EQ(scan->file_bytes, bytes.size());
  EXPECT_TRUE(scan->corruption.empty());
}

TEST_F(RecordLogTest, PayloadsWithNewlinesAndBackslashesRoundTrip) {
  const std::vector<std::string> payloads = {
      "two\nlines", "back\\slash", "\\n literal", "", "trailing\n",
      "\n\n\\\\", "spaces  and\ttabs"};
  write_log(payloads);
  EXPECT_EQ(line_ends(slurp()).size(), payloads.size() + 1)
      << "every record must stay one line";
  const auto scan = scan_record_log(path_);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->records.size(), payloads.size() + 1);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan->records[i + 1], payloads[i]) << "record " << i;
  }
}

TEST_F(RecordLogTest, FirstAppendWithoutResumeStartsAFreshFile) {
  spill("leftover bytes of some earlier file\n");
  write_log({"a"});
  const auto scan = scan_record_log(path_);
  ASSERT_TRUE(scan.has_value());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[1], "a");
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
}

TEST_F(RecordLogTest, ResumeAppendsAfterTheValidPrefix) {
  write_log({"a", "b"});
  RecordLog log(path_, "test-log v1");
  log.open([](const std::string&) {});
  EXPECT_EQ(log.size(), 2u);
  log.append("c");
  const auto scan = scan_record_log(path_);
  ASSERT_EQ(scan->records.size(), 4u);
  EXPECT_EQ(scan->records[3], "c");
  EXPECT_EQ(log.size(), 3u);
}

TEST_F(RecordLogTest, EveryCutKeepsExactlyTheCompleteRecordsBeforeIt) {
  const std::string full = write_log({"alpha", "two\nlines", "gamma"});
  const std::vector<std::size_t> ends = line_ends(full);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    spill(full.substr(0, cut));
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;

    // Read-only: the complete lines, no complaint, no truncation.
    const auto scan = scan_record_log(path_);
    ASSERT_TRUE(scan.has_value());
    EXPECT_EQ(scan->records.size(), complete);
    EXPECT_TRUE(scan->corruption.empty());
    EXPECT_EQ(slurp().size(), cut);

    // Writer: truncate to the same prefix, warn exactly when bytes go.
    capture_warnings();
    RecordLog log(path_, "test-log v1");
    log.open([](const std::string&) {});
    log::set_sink(nullptr);
    const bool torn = cut != (complete == 0 ? 0 : ends[complete - 1]);
    EXPECT_EQ(warnings_.size(), torn || complete == 0 ? 1u : 0u);
    if (!warnings_.empty()) {
      EXPECT_NE(warnings_[0].find("[io]"), std::string::npos) << warnings_[0];
    }
    if (complete > 0) {
      EXPECT_EQ(slurp(), full.substr(0, ends[complete - 1]));
      EXPECT_EQ(log.size(), complete - 1);
    }
    // Appending the lost records restores the uninterrupted bytes.
    const std::vector<std::string> all = {"alpha", "two\nlines", "gamma"};
    for (std::size_t r = complete == 0 ? 0 : complete - 1; r < all.size();
         ++r) {
      log.append(all[r]);
    }
    EXPECT_EQ(slurp(), full);
  }
}

TEST_F(RecordLogTest, BitFlipInRecordKKeepsRecordsBeforeK) {
  const std::string full = write_log({"alpha", "beta", "two\nlines"});
  const std::vector<std::size_t> ends = line_ends(full);
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    SCOPED_TRACE(testing::Message() << "flip at byte " << pos);
    std::size_t k = 0;  // the record holding byte `pos`
    while (ends[k] <= pos) ++k;
    std::string rotten = full;
    rotten[pos] = static_cast<char>(rotten[pos] ^ (1 << (pos % 8)));
    spill(rotten);
    const auto scan = scan_record_log(path_);
    ASSERT_TRUE(scan.has_value());
    EXPECT_EQ(scan->records.size(), k);
    EXPECT_EQ(scan->valid_bytes, k == 0 ? 0 : ends[k - 1]);

    capture_warnings();
    RecordLog(path_, "test-log v1").open([](const std::string&) {});
    log::set_sink(nullptr);
    EXPECT_EQ(warnings_.size(), 1u);
    EXPECT_EQ(slurp().size(), k == 0 ? full.size() : ends[k - 1]);
  }
}

TEST_F(RecordLogTest, ScanReportsACorruptTerminatedRecord) {
  spill(write_log({"alpha"}) + "not a framed record\n");
  const auto scan = scan_record_log(path_);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->corruption, "record 2 fails its checksum");
  EXPECT_LT(scan->valid_bytes, scan->file_bytes);
}

TEST_F(RecordLogTest, TornAppendIsCutOffByTheNextAppend) {
  RecordLog log(path_, "test-log v1");
  log.append("alpha");
  faultinject::FaultSpec spec;
  spec.kind = faultinject::FaultKind::kPartialWrite;
  spec.one_shot = true;
  faultinject::arm("record_log.append", spec);
  try {
    log.append("torn record that never completes");
    FAIL() << "a torn append must raise";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  EXPECT_EQ(log.size(), 1u);
  // The torn half is on disk: a read-only scan skips it silently.
  auto scan = scan_record_log(path_);
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_GT(scan->file_bytes, scan->valid_bytes);
  EXPECT_TRUE(scan->corruption.empty());

  log.append("beta");
  scan = scan_record_log(path_);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[2], "beta");
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
}

TEST_F(RecordLogTest, ScanWhileAppendingSeesOnlyCompletePrefixes) {
  // The distributed supervisor scans worker journals while the workers
  // append.  Every scan must see a prefix of the appended records and
  // never report corruption.
  constexpr int kRecords = 200;
  RecordLog log(path_, "test-log v1");
  log.append("record 0");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; i < kRecords; ++i) {
      log.append("record " + std::to_string(i));
    }
    done = true;
  });
  // No ASSERT in the loop: the writer must be joined on every path.
  bool prefix = true;
  std::size_t scans = 0;
  std::size_t last_seen = 0;
  while (prefix && (!done || scans == 0)) {
    const auto scan = scan_record_log(path_);
    prefix = scan.has_value() && scan->corruption.empty() &&
             scan->records.size() >= std::max<std::size_t>(last_seen, 1);
    for (std::size_t r = 1; prefix && r < scan->records.size(); ++r) {
      prefix = scan->records[r] == "record " + std::to_string(r - 1);
    }
    if (prefix) last_seen = scan->records.size();
    ++scans;
  }
  writer.join();
  EXPECT_TRUE(prefix) << "scan " << scans
                      << " saw a corrupt record or not a prefix";
  EXPECT_EQ(scan_record_log(path_)->records.size(), kRecords + 1u);
}

}  // namespace
}  // namespace gmd
