/// Robustness of the file-facing trace layers against the messy inputs
/// real pipelines produce: CRLF endings, missing final newlines,
/// interleaved noise, and unsorted traces.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"

namespace gmd::trace {
namespace {

class TraceRobustness : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/gmd_rob_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TraceRobustness, Gem5ParserAcceptsCrlfLines) {
  const MemoryEvent event{10, 0x100, 8, false};
  const std::string line = format_gem5_line(event) + " .\r";
  const auto parsed = parse_gem5_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST_F(TraceRobustness, NvmainParserAcceptsCrlfLines) {
  const auto parsed = parse_nvmain_line("10 R 0x100 0x0 0\r");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tick, 10u);
}

TEST_F(TraceRobustness, ConverterHandlesMissingTrailingNewline) {
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_in.txt";
  const std::string out_path = dir + "/gmd_rob_out.txt";
  {
    std::ofstream out(in_path);
    out << format_gem5_line({1, 0x100, 8, false}) << " .\n";
    out << format_gem5_line({2, 0x140, 8, true}) << " .";  // no newline
  }
  const ConvertStats stats = convert_gem5_to_nvmain(in_path, out_path);
  EXPECT_EQ(stats.events_out, 2u);
}

TEST_F(TraceRobustness, ConverterHandlesCrlfFile) {
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_crlf.txt";
  const std::string out_path = dir + "/gmd_rob_crlf_out.txt";
  {
    std::ofstream out(in_path, std::ios::binary);
    for (int i = 0; i < 50; ++i) {
      out << format_gem5_line({static_cast<std::uint64_t>(i), 0x100u + i * 64,
                               8, false})
          << " .\r\n";
    }
  }
  ConvertOptions options;
  options.chunk_bytes = 256;  // multiple chunks across CRLF boundaries
  const ConvertStats stats =
      convert_gem5_to_nvmain(in_path, out_path, options);
  EXPECT_EQ(stats.events_out, 50u);
  std::ifstream check(out_path);
  EXPECT_EQ(read_nvmain_trace(check).size(), 50u);
}

TEST_F(TraceRobustness, ConverterChunkBoundaryCannotSplitEvents) {
  // Exhaustive mini-sweep of chunk sizes around line lengths: the
  // output must be identical regardless of chunking.
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_chunks.txt";
  {
    std::ofstream out(in_path);
    for (int i = 0; i < 200; ++i) {
      out << format_gem5_line({static_cast<std::uint64_t>(i) * 3,
                               0x1000u + i * 64, 8, i % 2 == 0})
          << " .\n";
    }
  }
  std::string reference;
  for (const std::size_t chunk : {1u, 17u, 64u, 100u, 1000u, 1u << 20}) {
    const std::string out_path =
        dir + "/gmd_rob_chunks_out_" + std::to_string(chunk) + ".txt";
    ConvertOptions options;
    options.chunk_bytes = chunk;
    convert_gem5_to_nvmain(in_path, out_path, options);
    std::ifstream in(out_path);
    std::stringstream content;
    content << in.rdbuf();
    if (reference.empty()) {
      reference = content.str();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(content.str(), reference) << "chunk " << chunk;
    }
  }
}

TEST_F(TraceRobustness, SkippedLineBudgetFailsWithTraceError) {
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_budget.txt";
  const std::string out_path = dir + "/gmd_rob_budget_out.txt";
  {
    std::ofstream out(in_path);
    out << format_gem5_line({1, 0x100, 8, false}) << " .\n";
    out << "garbage line one\n";
    out << "garbage line two\n";
    out << format_gem5_line({2, 0x140, 8, true}) << " .\n";
    out << "garbage line three\n";
  }
  ConvertOptions options;
  options.max_skipped_lines = 2;
  try {
    convert_gem5_to_nvmain(in_path, out_path, options);
    FAIL() << "budget of 2 with 3 malformed lines must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTrace);
    const std::string what = e.what();
    EXPECT_NE(what.find("garbage line one"), std::string::npos) << what;
    EXPECT_NE(what.find("budget 2"), std::string::npos) << what;
  }
  // The output file must not have been written.
  std::ifstream check(out_path);
  EXPECT_FALSE(check.good());
}

TEST_F(TraceRobustness, StrictModeRejectsAnyMalformedLine) {
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_strict.txt";
  const std::string out_path = dir + "/gmd_rob_strict_out.txt";
  {
    std::ofstream out(in_path);
    out << format_gem5_line({1, 0x100, 8, false}) << " .\n";
    out << "not a memory record\n";
  }
  ConvertOptions strict;
  strict.max_skipped_lines = 0;
  EXPECT_THROW(convert_gem5_to_nvmain(in_path, out_path, strict), Error);

  // The same input passes under the default (unlimited) budget and
  // reports the quarantined line in the stats.
  const ConvertStats stats = convert_gem5_to_nvmain(in_path, out_path);
  EXPECT_EQ(stats.events_out, 1u);
  EXPECT_EQ(stats.lines_skipped, 1u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0], "not a memory record");
}

TEST_F(TraceRobustness, QuarantineLimitCapsReportedLines) {
  const std::string& dir = dir_;
  const std::string in_path = dir + "/gmd_rob_quarantine.txt";
  const std::string out_path = dir + "/gmd_rob_quarantine_out.txt";
  {
    std::ofstream out(in_path);
    for (int i = 0; i < 10; ++i) out << "bad " << i << "\n";
  }
  ConvertOptions options;
  options.quarantine_limit = 3;
  const ConvertStats stats =
      convert_gem5_to_nvmain(in_path, out_path, options);
  EXPECT_EQ(stats.lines_skipped, 10u);
  ASSERT_EQ(stats.quarantined.size(), 3u);
  EXPECT_EQ(stats.quarantined[0], "bad 0");
  EXPECT_EQ(stats.quarantined[2], "bad 2");
}

TEST_F(TraceRobustness, UnsortedTraceRejectedWithClearError) {
  // The memory system requires tick-ordered input (as NVMain's trace
  // reader does); feeding a shuffled trace must fail loudly, not
  // corrupt statistics.
  memsim::MemorySystem system(memsim::make_dram_config(1, 400, 2000));
  system.enqueue_event({100, 0x100, 64, false});
  EXPECT_THROW(system.enqueue_event({50, 0x140, 64, false}), Error);
}

TEST_F(TraceRobustness, EqualTicksAreAccepted) {
  memsim::MemorySystem system(memsim::make_dram_config(1, 400, 2000));
  system.enqueue_event({100, 0x100, 64, false});
  system.enqueue_event({100, 0x140, 64, true});
  const auto m = system.finish();
  EXPECT_EQ(m.total_reads + m.total_writes, 2u);
}

}  // namespace
}  // namespace gmd::trace
