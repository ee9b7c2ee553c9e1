#include "gmd/trace/converter.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/trace/formats.hpp"

namespace gmd::trace {
namespace {

class ConverterTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/gmd_conv_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  /// Writes a synthetic gem5 trace with `lines` memory lines and one
  /// garbage line every `garbage_every` lines.
  void write_input(const std::string& file, std::size_t lines,
                   std::size_t garbage_every = 0) {
    std::ofstream out(file);
    for (std::size_t i = 0; i < lines; ++i) {
      if (garbage_every && i % garbage_every == 0) {
        out << "warn: ignoring syscall mprotect(...)\n";
      }
      const MemoryEvent event{i * 8, 0x1000 + i * 64,
                              8, i % 3 == 0};
      out << format_gem5_line(event) << " .\n";
    }
  }

  std::string dir_;
};

TEST_F(ConverterTest, ConvertsAllMemoryLines) {
  const auto in = path("in1.txt");
  const auto out = path("out1.txt");
  write_input(in, 1000);
  const ConvertStats stats = convert_gem5_to_nvmain(in, out);
  EXPECT_EQ(stats.events_out, 1000u);
  EXPECT_EQ(stats.lines_skipped, 0u);
  EXPECT_EQ(stats.lines_in, 1000u);

  std::ifstream check(out);
  const auto events = read_nvmain_trace(check);
  ASSERT_EQ(events.size(), 1000u);
  EXPECT_EQ(events[0].address, 0x1000u);
  EXPECT_EQ(events[999].tick, 999u * 8);
}

TEST_F(ConverterTest, SkipsGarbageLines) {
  const auto in = path("in2.txt");
  const auto out = path("out2.txt");
  write_input(in, 100, /*garbage_every=*/10);
  const ConvertStats stats = convert_gem5_to_nvmain(in, out);
  EXPECT_EQ(stats.events_out, 100u);
  EXPECT_EQ(stats.lines_skipped, 10u);
}

TEST_F(ConverterTest, OutputOrderPreservedAcrossChunks) {
  const auto in = path("in3.txt");
  const auto out = path("out3.txt");
  write_input(in, 5000);
  ConvertOptions options;
  options.chunk_bytes = 1024;  // force many chunks
  options.num_threads = 4;
  const ConvertStats stats = convert_gem5_to_nvmain(in, out, options);
  EXPECT_GT(stats.chunks, 10u);

  std::ifstream check(out);
  const auto events = read_nvmain_trace(check);
  ASSERT_EQ(events.size(), 5000u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].tick, events[i - 1].tick) << "at " << i;
  }
}

TEST_F(ConverterTest, ChunkedMatchesSingleChunk) {
  const auto in = path("in4.txt");
  write_input(in, 2000, /*garbage_every=*/7);
  const auto out_single = path("out4a.txt");
  const auto out_chunked = path("out4b.txt");
  ConvertOptions single;
  single.chunk_bytes = 1u << 30;
  ConvertOptions chunked;
  chunked.chunk_bytes = 512;
  chunked.num_threads = 3;
  convert_gem5_to_nvmain(in, out_single, single);
  convert_gem5_to_nvmain(in, out_chunked, chunked);

  std::ifstream a(out_single), b(out_chunked);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST_F(ConverterTest, EmptyInputProducesEmptyOutput) {
  const auto in = path("in5.txt");
  const auto out = path("out5.txt");
  std::ofstream(in).close();
  const ConvertStats stats = convert_gem5_to_nvmain(in, out);
  EXPECT_EQ(stats.events_out, 0u);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST_F(ConverterTest, MissingInputThrows) {
  EXPECT_THROW(
      convert_gem5_to_nvmain("/nonexistent/trace.txt", path("out6.txt")),
      Error);
}

TEST_F(ConverterTest, BadChunkSizeThrows) {
  ConvertOptions options;
  options.chunk_bytes = 0;
  EXPECT_THROW(convert_gem5_to_nvmain(path("x"), path("y"), options), Error);
}

TEST_F(ConverterTest, SummarizeSkippedWording) {
  ConvertStats stats;
  stats.lines_in = 100;
  stats.lines_skipped = 3;
  ConvertOptions unlimited;
  EXPECT_EQ(summarize_skipped(stats, unlimited),
            "3 of 100 lines failed to parse (budget unlimited)");
  ConvertOptions bounded;
  bounded.max_skipped_lines = 2;
  EXPECT_EQ(summarize_skipped(stats, bounded),
            "3 of 100 lines failed to parse (budget 2)");
}

TEST_F(ConverterTest, BudgetErrorUsesSummaryWording) {
  // Satellite requirement: the budget-exceeded error and the one-line
  // stats summary must use identical wording.
  const auto in = path("in_budget.txt");
  write_input(in, 100, /*garbage_every=*/10);
  ConvertOptions options;
  options.max_skipped_lines = 2;
  try {
    convert_gem5_to_nvmain(in, path("out_budget.txt"), options);
    FAIL() << "expected budget error";
  } catch (const Error& e) {
    ConvertStats expected;
    expected.lines_in = 110;
    expected.lines_skipped = 10;
    EXPECT_NE(std::string(e.what()).find(summarize_skipped(expected, options)),
              std::string::npos)
        << e.what();
  }
  // The GMDT converter enforces the same budget with the same message.
  try {
    convert_gem5_to_gmdt(in, path("out_budget.gmdt"), options);
    FAIL() << "expected budget error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTrace);
    EXPECT_NE(std::string(e.what()).find("10 of 110 lines failed to parse"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ConverterTest, GmdtRoundTripMatchesTextConversion) {
  const auto in = path("in_gmdt.txt");
  write_input(in, 3000, /*garbage_every=*/13);
  const auto text_out = path("out_gmdt.txt");
  const auto store_out = path("out_store.gmdt");
  ConvertOptions options;
  options.chunk_bytes = 2048;  // many parse chunks
  options.gmdt_chunk_events = 256;  // many store chunks
  const ConvertStats text_stats = convert_gem5_to_nvmain(in, text_out, options);
  const ConvertStats store_stats = convert_gem5_to_gmdt(in, store_out, options);
  EXPECT_EQ(text_stats.events_out, store_stats.events_out);
  EXPECT_EQ(text_stats.lines_in, store_stats.lines_in);
  EXPECT_EQ(text_stats.lines_skipped, store_stats.lines_skipped);

  // unpack(pack(gem5)) must equal the direct gem5 -> NVMain conversion,
  // byte for byte.
  const auto unpacked = path("out_unpacked.txt");
  convert_gmdt_to_nvmain(store_out, unpacked, options);
  std::ifstream a(text_out), b(unpacked);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

}  // namespace
}  // namespace gmd::trace
