#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::tracestore {
namespace {

using cpusim::MemoryEvent;

bool operator_eq(const MemoryEvent& a, const MemoryEvent& b) {
  return a.tick == b.tick && a.address == b.address && a.size == b.size &&
         a.is_write == b.is_write;
}

void expect_events_equal(const std::vector<MemoryEvent>& got,
                         const std::vector<MemoryEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(operator_eq(got[i], want[i]))
        << "event " << i << ": {" << got[i].tick << ", " << got[i].address
        << ", " << got[i].size << ", " << got[i].is_write << "} vs {"
        << want[i].tick << ", " << want[i].address << ", " << want[i].size
        << ", " << want[i].is_write << "}";
  }
}

class GmdtRoundTrip : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/gmd_store_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string write_store(const std::string& name,
                          const std::vector<MemoryEvent>& events,
                          std::size_t events_per_chunk = 0) {
    const std::string file = path(name);
    TraceStoreWriterOptions options;
    if (events_per_chunk > 0) options.events_per_chunk = events_per_chunk;
    write_trace_store(file, events, options);
    return file;
  }

  std::vector<MemoryEvent> random_events(std::size_t count,
                                         std::uint64_t seed = 7) {
    Rng rng(seed);
    std::vector<MemoryEvent> events;
    events.reserve(count);
    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < count; ++i) {
      tick += rng.next_below(512);
      events.push_back(MemoryEvent{
          tick, 0x10000000ull + rng.next_below(1u << 22) * 64,
          static_cast<std::uint32_t>(8u << rng.next_below(4)),
          rng.next_below(3) == 0});
    }
    return events;
  }

  std::string dir_;
};

TEST_F(GmdtRoundTrip, EmptyTrace) {
  const auto file = write_store("empty.gmdt", {});
  TraceStoreReader reader(file);
  EXPECT_EQ(reader.num_events(), 0u);
  EXPECT_EQ(reader.num_chunks(), 0u);
  EXPECT_TRUE(reader.read_all().empty());
  reader.verify();
}

TEST_F(GmdtRoundTrip, SingleEvent) {
  const std::vector<MemoryEvent> events = {{123456789ull, 0xDEADBEEFull, 64,
                                            true}};
  TraceStoreReader reader(write_store("single.gmdt", events));
  EXPECT_EQ(reader.num_chunks(), 1u);
  expect_events_equal(reader.read_all(), events);
}

TEST_F(GmdtRoundTrip, RandomTraceIsLossless) {
  const auto events = random_events(10000);
  TraceStoreReader reader(write_store("random.gmdt", events));
  EXPECT_EQ(reader.num_events(), events.size());
  expect_events_equal(reader.read_all(), events);
}

TEST_F(GmdtRoundTrip, NonMonotonicTicks) {
  // Negative tick deltas must survive: merged multi-core traces are not
  // globally sorted.
  std::vector<MemoryEvent> events;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    events.push_back(MemoryEvent{(i * 7919) % 1000, i * 64, 8, i % 2 == 0});
  }
  TraceStoreReader reader(write_store("nonmono.gmdt", events, 128));
  expect_events_equal(reader.read_all(), events);
}

TEST_F(GmdtRoundTrip, ExtremeAddressAndTickSwings) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::vector<MemoryEvent> events = {
      {0, 0, 1, false},         {max, max, 4096, true},
      {0, 0, 8, false},         {max, 1, 64, true},
      {1, max, 64, false},      {max / 2, max / 2 + 1, 32, true},
  };
  TraceStoreReader reader(write_store("extreme.gmdt", events, 2));
  expect_events_equal(reader.read_all(), events);
}

TEST_F(GmdtRoundTrip, MultiChunkGeometryAndRandomAccess) {
  const auto events = random_events(1000);
  TraceStoreReader reader(write_store("chunks.gmdt", events, 64));
  // 1000 events at 64 per chunk: 15 full chunks + a short tail.
  ASSERT_EQ(reader.num_chunks(), 16u);
  EXPECT_EQ(reader.header().events_per_chunk, 64u);
  EXPECT_EQ(reader.chunk_info(15).event_count, 1000u % 64);

  // Random access decodes exactly the chunk's slice of the stream.
  const auto chunk7 = reader.decode_chunk(7);
  ASSERT_EQ(chunk7.size(), 64u);
  for (std::size_t i = 0; i < chunk7.size(); ++i) {
    EXPECT_TRUE(operator_eq(chunk7[i], events[7 * 64 + i])) << i;
  }
}

TEST_F(GmdtRoundTrip, ChunkInfoTickRangesCoverChunkEvents) {
  const auto events = random_events(500, /*seed=*/11);
  TraceStoreReader reader(write_store("ranges.gmdt", events, 50));
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    const ChunkEntry& entry = reader.chunk_info(c);
    const auto chunk = reader.decode_chunk(c);
    ASSERT_FALSE(chunk.empty());
    std::uint64_t lo = chunk[0].tick;
    std::uint64_t hi = chunk[0].tick;
    for (const MemoryEvent& event : chunk) {
      lo = std::min(lo, event.tick);
      hi = std::max(hi, event.tick);
    }
    EXPECT_EQ(entry.min_tick, lo) << "chunk " << c;
    EXPECT_EQ(entry.max_tick, hi) << "chunk " << c;
  }
}

TEST_F(GmdtRoundTrip, FirstChunkAtOrAfterSeeksByTick) {
  std::vector<MemoryEvent> events;
  for (std::uint64_t i = 0; i < 400; ++i) {
    events.push_back(MemoryEvent{i * 10, i * 64, 8, false});
  }
  TraceStoreReader reader(write_store("seek.gmdt", events, 100));
  ASSERT_EQ(reader.num_chunks(), 4u);
  EXPECT_EQ(reader.first_chunk_at_or_after(0), 0u);
  EXPECT_EQ(reader.first_chunk_at_or_after(990), 0u);   // chunk 0 ends at 990
  EXPECT_EQ(reader.first_chunk_at_or_after(991), 1u);
  EXPECT_EQ(reader.first_chunk_at_or_after(995), 1u);
  EXPECT_EQ(reader.first_chunk_at_or_after(3990), 3u);
  EXPECT_EQ(reader.first_chunk_at_or_after(3991), 4u);  // past every chunk
}

TEST_F(GmdtRoundTrip, ChunkIteratorMatchesReadAll) {
  const auto events = random_events(3000, /*seed=*/13);
  TraceStoreReader reader(write_store("iter.gmdt", events, 256));
  std::vector<MemoryEvent> streamed;
  ChunkIterator it(reader);
  std::size_t chunks_seen = 0;
  while (it.next()) {
    EXPECT_EQ(it.index(), chunks_seen);
    streamed.insert(streamed.end(), it.events().begin(), it.events().end());
    ++chunks_seen;
  }
  EXPECT_EQ(chunks_seen, reader.num_chunks());
  expect_events_equal(streamed, events);
}

TEST_F(GmdtRoundTrip, ParallelReadAllMatchesSequential) {
  const auto events = random_events(20000, /*seed=*/17);
  TraceStoreReader reader(write_store("parallel.gmdt", events, 512));
  ThreadPool pool(4);
  expect_events_equal(reader.read_all(pool), reader.read_all());
  expect_events_equal(reader.read_all(pool), events);
}

TEST_F(GmdtRoundTrip, StreamingSinkMatchesBulkWrite) {
  const auto events = random_events(5000, /*seed=*/19);
  const std::string bulk = write_store("bulk.gmdt", events, 300);

  const std::string streamed = path("streamed.gmdt");
  {
    TraceStoreWriterOptions options;
    options.events_per_chunk = 300;
    TraceStoreWriter writer(streamed, options);
    for (const MemoryEvent& event : events) writer.on_event(event);
    EXPECT_FALSE(writer.closed());
    writer.close();
    EXPECT_TRUE(writer.closed());
    EXPECT_EQ(writer.events_written(), events.size());
  }
  TraceStoreReader a(bulk);
  TraceStoreReader b(streamed);
  EXPECT_EQ(a.content_checksum(), b.content_checksum());
  expect_events_equal(b.read_all(), events);
}

TEST_F(GmdtRoundTrip, ContentChecksumTracksContent) {
  auto events = random_events(100, /*seed=*/23);
  TraceStoreReader a(write_store("sum_a.gmdt", events, 32));
  TraceStoreReader same(write_store("sum_same.gmdt", events, 32));
  EXPECT_EQ(a.content_checksum(), same.content_checksum());

  events[50].address ^= 0x40;
  TraceStoreReader changed(write_store("sum_b.gmdt", events, 32));
  EXPECT_NE(a.content_checksum(), changed.content_checksum());
}

}  // namespace
}  // namespace gmd::tracestore
