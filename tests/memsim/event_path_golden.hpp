#pragma once

/// Shared memsim test traces and the frozen outputs of the event path.
///
/// The traces are the ones the equivalence, clock-free replay and
/// record suites replay.  The frozen values are the bits the raw event
/// path (split, decode and enqueue one event at a time) reported on
/// them; test_event_path_golden.cpp holds every simulation to them, so
/// no later change of the request path can move an output bit unseen.
/// A frozen case is an FNV-1a digest over every MemoryMetrics field
/// plus a few readable values, so a failure says what moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "gmd/common/hash.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/metrics.hpp"

namespace gmd::memsim::golden {

using cpusim::MemoryEvent;

/// Streaming, strided, and hot-cluster phases with both narrow and wide
/// (split) accesses: row hits, conflicts, write drains, and the
/// transaction splitter.
inline std::vector<MemoryEvent> mixed_trace(std::size_t n = 2000) {
  std::vector<MemoryEvent> trace;
  trace.reserve(n);
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    tick += 3 + (i % 7) * 5;
    std::uint64_t address;
    switch (i % 4) {
      case 0:
        address = 0x100000 + i * 64;  // stream
        break;
      case 1:
        address = 0x400000 + (i % 41) * 8192;  // strided rows
        break;
      case 2:
        address = 0x800000 + (i % 13) * 64;  // hot cluster
        break;
      default:
        address = 0x200000 + (i % 29) * 4096;  // page-strided
        break;
    }
    const std::uint32_t size = i % 5 == 0 ? 128 : 64;  // some split in two
    trace.push_back({tick, address, size, i % 3 == 1});
  }
  return trace;
}

/// The queue lane an address lands in: events in one lane must keep
/// non-decreasing ticks (a channel checks arrival order).
using LaneOf = std::function<std::uint32_t(std::uint64_t address)>;

/// The first 64B-aligned address at or above `from` in `lane`.
inline std::uint64_t address_in_lane(const LaneOf& lane_of,
                                     std::uint32_t lane, std::uint64_t from) {
  for (std::uint64_t address = from;; address += 64) {
    if (lane_of(address) == lane) return address;
  }
}

/// A mixed trace with every corner of the tick-to-cycle stamp: wide
/// events split into several requests that share one cycle, repeated
/// ticks, ticks out of order across lanes (in order within each), and
/// ticks whose product with the controller clock no longer fits in 64
/// bits.
inline std::vector<MemoryEvent> corner_trace(const LaneOf& lane_of) {
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (std::uint64_t i = 0; i < 1500; ++i) {
    // Runs of three events share one tick.
    if (i % 3 == 0) tick += 1 + (i % 11) * 7;
    const std::uint64_t address = i % 2 == 0
                                      ? 0x100000 + i * 64
                                      : 0x400000 + (i % 37) * 8192;
    // Every fifth event is 256B wide: four requests on one tick.
    const std::uint32_t size = i % 5 == 0 ? 256 : 64;
    trace.push_back({tick, address, size, i % 4 == 1});
  }

  // Out of order across lanes, in order within each lane.
  const std::uint64_t base = tick + 100;
  const std::uint64_t a = 0x900000;
  std::uint64_t b = a + 64;
  while (lane_of(b) == lane_of(a)) b += 64;
  trace.push_back({base + 20, a, 64, false});
  trace.push_back({base + 10, b, 64, true});
  trace.push_back({base + 30, address_in_lane(lane_of, lane_of(a), a + 0x40000),
                   64, false});
  trace.push_back(
      {base + 15, address_in_lane(lane_of, lane_of(b), b + 64), 64, false});
  trace.push_back({base + 40, b, 64, false});

  // Ticks at and past the 64-bit limit of tick * clock: the last tick
  // that fits at 1600 MHz, the first that does not, and one far past.
  const std::uint64_t fits =
      std::numeric_limits<std::uint64_t>::max() / 1600;
  for (const std::uint64_t big :
       {fits, fits + 1, fits + 1, std::uint64_t{1} << 60}) {
    trace.push_back({big, 0x100040, 128, false});
    trace.push_back({big, 0x400000, 64, true});
  }
  return trace;
}

/// Repeated writes to one line, 256 B writes that split across five
/// lines (unaligned, so the first and last words straddle), reads that
/// must not count, and wide writes that overlap the hot line.
inline std::vector<MemoryEvent> endurance_trace() {
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (int i = 0; i < 12; ++i) trace.push_back({tick += 5, 0x12340, 64, true});
  for (std::uint64_t i = 0; i < 40; ++i) {
    trace.push_back({tick += 3, 0x200020 + i * 0x1000, 256, true});
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    trace.push_back({tick += 2, 0x300000 + i * 64, 64, false});
  }
  for (int i = 0; i < 3; ++i) trace.push_back({tick += 7, 0x12320, 256, true});
  return trace;
}

/// 4 ranks x 128 banks: flat bank indexes up to 511, past one byte.
inline MemoryConfig many_banks_config() {
  MemoryConfig config = make_nvm_config(2, 400, 2000, 20);
  config.ranks = 4;
  config.banks = 128;
  config.rows = 1024;
  return config;
}

/// Scattered accesses over 1 GiB for many_banks_config().
inline std::vector<MemoryEvent> many_banks_trace() {
  std::vector<MemoryEvent> trace;
  std::uint64_t tick = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    tick += 1 + i % 5;
    trace.push_back({tick, (i * 0x9E3779B97F4A7C15ULL) % (1ULL << 30) & ~63ULL,
                     i % 7 == 0 ? 256u : 64u, i % 3 == 0});
  }
  return trace;
}

/// One cell of the scheduler policy matrix: (is_nvm, scheduling,
/// page_policy, prioritize_reads, queue_depth).
struct PolicyCell {
  bool nvm = false;
  SchedulingPolicy scheduling = SchedulingPolicy::kFrFcfs;
  PagePolicy page = PagePolicy::kOpen;
  bool prioritize_reads = false;
  std::uint32_t queue_depth = 32;

  MemoryConfig config() const {
    MemoryConfig config = nvm ? make_nvm_config(2, 666, 3000, 40)
                              : make_dram_config(2, 666, 3000);
    config.scheduling = scheduling;
    config.page_policy = page;
    config.prioritize_reads = prioritize_reads;
    config.queue_depth = queue_depth;
    return config;
  }

  /// e.g. "NvmFrFcfsClosedReadPrioQ4".
  std::string name() const {
    return std::string(nvm ? "Nvm" : "Dram") +
           (scheduling == SchedulingPolicy::kFcfs ? "Fcfs" : "FrFcfs") +
           (page == PagePolicy::kOpen ? "Open" : "Closed") +
           (prioritize_reads ? "ReadPrio" : "") + "Q" +
           std::to_string(queue_depth);
  }
};

/// FNV-1a over every MemoryMetrics field, doubles by their bits.
inline std::uint64_t metrics_digest(const MemoryMetrics& m) {
  Fnv1a h;
  for (const double v : m.metric_values()) h.mix_double(v);
  h.mix(m.total_reads);
  h.mix(m.total_writes);
  h.mix(m.channels);
  h.mix(m.banks_total);
  h.mix_double(m.execution_seconds);
  h.mix_double(m.dynamic_energy_j);
  h.mix_double(m.background_energy_j);
  h.mix(m.row_hits);
  h.mix(m.row_misses);
  h.mix(m.max_line_writes);
  h.mix(m.unique_lines_written);
  h.mix(m.epochs.size());
  for (const MemoryMetrics::EpochSample& e : m.epochs) {
    h.mix(e.epoch);
    h.mix(e.reads);
    h.mix(e.writes);
    h.mix_double(e.avg_total_latency_cycles);
    h.mix_double(e.bandwidth_mbs);
  }
  return h.state;
}

/// One frozen case: the digest plus readable values of one run.
struct Frozen {
  const char* name;
  std::uint64_t digest;
  double avg_total_latency_cycles;
  double avg_power_per_channel_w;
  std::uint64_t max_line_writes;
  std::uint64_t unique_lines_written;
};

/// `m` as a Frozen initializer, 17 significant digits: what a failure
/// prints, and what a deliberate re-pin pastes.
inline std::string frozen_literal(const char* name, std::uint64_t digest,
                                  const MemoryMetrics& m) {
  char text[256];
  std::snprintf(text, sizeof text, "{\"%s\", 0x%s, %.17g, %.17g, %llu, %llu}",
                name, to_hex16(digest).c_str(), m.avg_total_latency_cycles,
                m.avg_power_per_channel_w,
                static_cast<unsigned long long>(m.max_line_writes),
                static_cast<unsigned long long>(m.unique_lines_written));
  return text;
}

/// Holds `m` (whose digest may fold more than `m`, see the callers) to
/// `frozen`, field by field.
inline void expect_frozen(const MemoryMetrics& m, std::uint64_t digest,
                          const Frozen& frozen) {
  const std::string actual = frozen_literal(frozen.name, digest, m);
  EXPECT_EQ(m.avg_total_latency_cycles, frozen.avg_total_latency_cycles)
      << actual;
  EXPECT_EQ(m.avg_power_per_channel_w, frozen.avg_power_per_channel_w)
      << actual;
  EXPECT_EQ(m.max_line_writes, frozen.max_line_writes) << actual;
  EXPECT_EQ(m.unique_lines_written, frozen.unique_lines_written) << actual;
  EXPECT_EQ(to_hex16(digest), to_hex16(frozen.digest)) << actual;
}

inline void expect_frozen(const MemoryMetrics& m, const Frozen& frozen) {
  expect_frozen(m, metrics_digest(m), frozen);
}

// --- frozen outputs ---------------------------------------------------

inline constexpr Frozen kMixed[] = {
    {"mixed_dram_x2", 0xa4958bb48622e96b, 485.48500000000001,
     0.15559096903096903, 16, 346},
    {"mixed_dram_x4", 0x19a78b69a2d6640e, 342.39625000000001,
     0.14478329138859855, 16, 346},
    {"mixed_nvm_x2", 0x4dd2d35833878176, 1470.8525,
     0.078175965220446161, 16, 346},
    {"mixed_nvm_x4", 0x4226dcb6d3c38931, 1191.0579166666666,
     0.072596050556876485, 16, 346},
};
inline constexpr Frozen kCorner[] = {
    {"corner_dram_x2", 0x9e3fd0235bdd3788, 367.12122465866776,
     0.14112820512821056, 14, 149},
    {"corner_dram_x4", 0x3021e7d94bd2f27f, 289.90359950351677,
     0.14112820512820778, 14, 149},
    {"corner_nvm_x2", 0x55a106d9bdfa09dd, 2574.2536201903185,
     0.14900000000000821, 14, 149},
    {"corner_nvm_x4", 0xf7ec2ea23b10ce4b, 1929.1121224658668,
     0.1490000000000041, 14, 149},
};
inline constexpr Frozen kCornerHybrid[] = {
    {"corner_hybrid_x2", 0xa79cf9bdb58f5fd8, 1192.3028547786512,
     0.1563511839038188, 14, 149},
    {"corner_hybrid_x4", 0xbca862289ce923ae, 878.60984691766657,
     0.15505954406787154, 14, 149},
};
inline constexpr Frozen kHybridHalf{
    "mixed_hybrid_x4_f0.5", 0xa37e7f2f717192de, 599.73958333333337,
    0.1162931052259229, 16, 346};
inline constexpr Frozen kHybridQuarter{
    "mixed_hybrid_x4_f0.25", 0xc52dffaa8819de96, 1139.82125,
    0.11551885791050306, 16, 346};
inline constexpr Frozen kManyBanks{
    "many_banks_nvm_x2_4rk_128bk", 0xf7b1fb87426dfdcf, 754.33706554700257,
    0.066289948959560266, 1, 1429};
inline constexpr Frozen kEndurance[] = {
    {"endurance_dram_x2", 0x8b38da1bfa0108e3, 569.68539325842698,
     0.13870548178413344, 15, 205},
    {"endurance_nvm_x2", 0x5b2b99cda40485eb, 1399.2808988764045,
     0.057543127582988941, 15, 205},
};
inline constexpr Frozen kEnduranceHybridDramSide{
    "endurance_hybrid_x4_dram_side", 0xb4467ab4e95e33a0, 564.78231292517012,
    0.1374634414513469, 15, 125};
inline constexpr Frozen kEnduranceHybridNvmSide{
    "endurance_hybrid_x4_nvm_side", 0x49393bc79009bcee, 1083.7750000000001,
    0.057715250622111629, 1, 80};
inline constexpr Frozen kEnduranceHybrid{
    "endurance_hybrid_x4", 0x2276405a10b3b003, 798.0374531835206,
    0.097589346036729266, 15, 205};
inline constexpr Frozen kRefreshEpochs{
    "dram_x2_refresh_epochs", 0x748a5be2c705cbb0, 505.67250000000001,
    0.16320361784300474, 16, 346};
inline constexpr Frozen kSampledTenth{
    "dram_x2_sampled_0.1", 0x03ca1ac86cd86765, 467.45708333333334,
    0.15637912776536878, 0, 0};
inline constexpr Frozen kSampledAll{
    "dram_x2_sampled_1.0", 0xa704dd8cf2cc7357, 510.35513888888892,
    0.15629426404302971, 185, 2542};
inline constexpr Frozen kPolicyMatrix[] = {
    {"DramFcfsOpenQ4", 0xe2d933c1f663e117, 73.725416666666661,
     0.15551321590221118, 16, 346},
    {"DramFcfsOpenQ32", 0x7830ce2e7a76b8a1, 579.66125,
     0.15551321590221118, 16, 346},
    {"DramFcfsOpenReadPrioQ4", 0x23a2ece452152d4b, 97.532083333333333,
     0.14924500185189218, 16, 346},
    {"DramFcfsOpenReadPrioQ32", 0x44c71106c32006dd, 560.98583333333329,
     0.15705896202075958, 16, 346},
    {"DramFcfsClosedQ4", 0x63af5d7cf23e9ba1, 75.032499999999999,
     0.16383287008873978, 16, 346},
    {"DramFcfsClosedQ32", 0x4352b909e20598a7, 590.13999999999999,
     0.16383287008873978, 16, 346},
    {"DramFcfsClosedReadPrioQ4", 0x8d41478cd55f6c25, 100.32458333333334,
     0.15384665642488754, 16, 346},
    {"DramFcfsClosedReadPrioQ32", 0x81b4583edfddf137, 554.04291666666666,
     0.16612465059256232, 16, 346},
    {"DramFrFcfsOpenQ4", 0x46531e861ef00469, 67.806666666666672,
     0.15689624154770848, 16, 346},
    {"DramFrFcfsOpenQ32", 0xa4958bb48622e96b, 485.48500000000001,
     0.15559096903096903, 16, 346},
    {"DramFrFcfsOpenReadPrioQ4", 0xcf330806745f0ced, 96.121250000000003,
     0.14926453572767986, 16, 346},
    {"DramFrFcfsOpenReadPrioQ32", 0x6c6f05181fc147fa, 486.41041666666666,
     0.15566123185960176, 16, 346},
    {"DramFrFcfsClosedQ4", 0x63af5d7cf23e9ba1, 75.032499999999999,
     0.16383287008873978, 16, 346},
    {"DramFrFcfsClosedQ32", 0x4352b909e20598a7, 590.13999999999999,
     0.16383287008873978, 16, 346},
    {"DramFrFcfsClosedReadPrioQ4", 0x8d41478cd55f6c25, 100.32458333333334,
     0.15384665642488754, 16, 346},
    {"DramFrFcfsClosedReadPrioQ32", 0x81b4583edfddf137, 554.04291666666666,
     0.16612465059256232, 16, 346},
    {"NvmFcfsOpenQ4", 0x58cda577c0a68f36, 189.45458333333335,
     0.07832036139658341, 16, 346},
    {"NvmFcfsOpenQ32", 0x4794d26c56ad2efe, 1496.2358333333334,
     0.07832036139658341, 16, 346},
    {"NvmFcfsOpenReadPrioQ4", 0xe783c9f7a8de8204, 197.80708333333334,
     0.077923113702106903, 16, 346},
    {"NvmFcfsOpenReadPrioQ32", 0x1f3e2875f4020d67, 1421.0041666666666,
     0.079307254084452411, 16, 346},
    {"NvmFcfsClosedQ4", 0x737d63cc2a3b44dd, 221.18791666666667,
     0.077990069612746862, 16, 346},
    {"NvmFcfsClosedQ32", 0xfd8b4b1f420ad335, 1744.9775,
     0.077990069612746862, 16, 346},
    {"NvmFcfsClosedReadPrioQ4", 0xf7f55cc4513ea128, 244.50041666666667,
     0.07669727280329286, 16, 346},
    {"NvmFcfsClosedReadPrioQ32", 0xaf74feb2b15f8bae, 1675.1712500000001,
     0.078701976747979852, 16, 346},
    {"NvmFrFcfsOpenQ4", 0x95b8eb0cd2f600a6, 178.62583333333333,
     0.078910721868875724, 16, 346},
    {"NvmFrFcfsOpenQ32", 0x4dd2d35833878176, 1470.8525,
     0.078175965220446161, 16, 346},
    {"NvmFrFcfsOpenReadPrioQ4", 0xd39dd9b11bac2d99, 220.92416666666668,
     0.076035774245740928, 16, 346},
    {"NvmFrFcfsOpenReadPrioQ32", 0x072232b067952288, 1410.5541666666666,
     0.078443960449535333, 16, 346},
    {"NvmFrFcfsClosedQ4", 0x737d63cc2a3b44dd, 221.18791666666667,
     0.077990069612746862, 16, 346},
    {"NvmFrFcfsClosedQ32", 0xfd8b4b1f420ad335, 1744.9775,
     0.077990069612746862, 16, 346},
    {"NvmFrFcfsClosedReadPrioQ4", 0xf7f55cc4513ea128, 244.50041666666667,
     0.07669727280329286, 16, 346},
    {"NvmFrFcfsClosedReadPrioQ32", 0xaf74feb2b15f8bae, 1675.1712500000001,
     0.078701976747979852, 16, 346},
};

/// kPolicyMatrix's entry for `cell`.
inline const Frozen& frozen_for(const PolicyCell& cell) {
  for (const Frozen& frozen : kPolicyMatrix) {
    if (cell.name() == frozen.name) return frozen;
  }
  throw std::out_of_range("no frozen policy cell " + cell.name());
}

}  // namespace gmd::memsim::golden
