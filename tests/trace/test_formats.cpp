#include "gmd/trace/formats.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd::trace {
namespace {

TEST(Gem5Format, FormatThenParseRoundTrips) {
  const MemoryEvent event{12345, 0x10002040, 8, false};
  const std::string line = format_gem5_line(event) + " .";
  const auto parsed = parse_gem5_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(Gem5Format, WriteEventRoundTrips) {
  const MemoryEvent event{999, 0xdeadbeef, 64, true};
  const auto parsed = parse_gem5_line(format_gem5_line(event) + " .");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_write);
  EXPECT_EQ(parsed->address, 0xdeadbeefu);
}

TEST(Gem5Format, RejectsNonMemoryLines) {
  EXPECT_FALSE(parse_gem5_line("info: Entering event queue @ 0."));
  EXPECT_FALSE(parse_gem5_line(""));
  EXPECT_FALSE(
      parse_gem5_line("500: system.cpu: A0 T0 : @main : something else ."));
  EXPECT_FALSE(parse_gem5_line("x: system.physmem: Read of size 8 at address 0x10 ."));
  EXPECT_FALSE(parse_gem5_line("1: system.physmem: Flush of size 8 at address 0x10 ."));
  EXPECT_FALSE(parse_gem5_line("1: system.physmem: Read of size 0 at address 0x10 ."));
}

TEST(Gem5Format, WriterProducesParseableLines) {
  std::ostringstream os;
  Gem5TraceWriter writer(os);
  writer.on_event({1, 0x100, 8, false});
  writer.on_event({2, 0x200, 4, true});
  EXPECT_EQ(writer.lines_written(), 2u);

  std::istringstream is(os.str());
  std::uint64_t skipped = 77;
  const auto events = read_gem5_trace(is, &skipped);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(events[1].address, 0x200u);
  EXPECT_TRUE(events[1].is_write);
}

TEST(Gem5Format, ReaderSkipsGarbageAndCounts) {
  std::istringstream is(
      "command line: gem5.opt\n"
      "1000: system.physmem: Read of size 8 at address 0x10 .\n"
      "some warning text\n"
      "2000: system.physmem: Write of size 4 at address 0x20 .\n");
  std::uint64_t skipped = 0;
  const auto events = read_gem5_trace(is, &skipped);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(skipped, 2u);
}

TEST(NvmainFormat, FormatMatchesSpec) {
  const MemoryEvent event{42, 0x1000, 64, true};
  EXPECT_EQ(format_nvmain_line(event), "42 W 0x1000 0x0 0");
  const MemoryEvent read{7, 0x40, 64, false};
  EXPECT_EQ(format_nvmain_line(read), "7 R 0x40 0x0 0");
}

TEST(NvmainFormat, ParseAcceptsFourOrFiveFields) {
  auto with_tid = parse_nvmain_line("10 R 0x100 0xdead 3");
  ASSERT_TRUE(with_tid.has_value());
  EXPECT_EQ(with_tid->tick, 10u);
  EXPECT_EQ(with_tid->size, kNvmainWordBytes);

  auto without_tid = parse_nvmain_line("11 W 0x140 0x0");
  ASSERT_TRUE(without_tid.has_value());
  EXPECT_TRUE(without_tid->is_write);
}

TEST(NvmainFormat, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_nvmain_line("10 X 0x100 0x0 0"));
  EXPECT_FALSE(parse_nvmain_line("ten R 0x100 0x0 0"));
  EXPECT_FALSE(parse_nvmain_line("10 R"));
  EXPECT_FALSE(parse_nvmain_line("10 R zz 0x0 0"));
}

TEST(NvmainFormat, ReaderRejectsMalformedLines) {
  std::istringstream good("1 R 0x10 0x0 0\n2 W 0x20 0x0 0\n");
  EXPECT_EQ(read_nvmain_trace(good).size(), 2u);
  std::istringstream bad("1 R 0x10 0x0 0\ngarbage here now\n");
  EXPECT_THROW(read_nvmain_trace(bad), Error);
}

TEST(NvmainFormat, WriterReaderRoundTrip) {
  std::ostringstream os;
  NvmainTraceWriter writer(os);
  writer.on_event({5, 0x80, 64, false});
  writer.on_event({9, 0xC0, 64, true});
  std::istringstream is(os.str());
  const auto events = read_nvmain_trace(is);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tick, 5u);
  EXPECT_TRUE(events[1].is_write);
}

TEST(NvmainSemantics, ToNvmainEventMatchesTextRoundTrip) {
  const MemoryEvent event{77, 0x1234567, 8, true};
  const MemoryEvent direct = to_nvmain_event(event);
  const auto reparsed = parse_nvmain_line(format_nvmain_line(event));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(direct.tick, reparsed->tick);
  EXPECT_EQ(direct.address, reparsed->address);
  EXPECT_EQ(direct.size, reparsed->size);
  EXPECT_EQ(direct.is_write, reparsed->is_write);
}

}  // namespace
}  // namespace gmd::trace
