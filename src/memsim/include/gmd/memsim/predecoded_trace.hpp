#pragma once

/// \file predecoded_trace.hpp
/// A memory-event trace with the per-geometry preprocessing already
/// done: wide accesses split into word-granular requests and addresses
/// decoded to (channel, flat bank, row).  This is the only form memsim
/// replays: every simulation builds one (PredecodedTrace::Builder is the
/// only code that turns events into requests) and replays it.  The
/// decode depends only on the mapping geometry — not on the clocks,
/// timing, energy, or controller policy — so one predecoded trace feeds
/// every sweep point that shares those fields (e.g. every clock pair and
/// NVM tRCD variant of a channel count).
///
/// Each request is one 16 B Record of input fields: its CPU tick, row,
/// flat bank, channel and write bit.  Replay stamps the tick to a
/// controller cycle under the replaying config's clocks and hands the
/// fields straight to Channel::enqueue_trusted — nothing else is stored
/// per request.  Endurance (the 64 B-line write counts) depends only on
/// the stream's write addresses, so the builder counts it once and the
/// stream carries the two totals; replay does no per-write counting.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gmd/common/flat_counter.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/address.hpp"
#include "gmd/memsim/config.hpp"

namespace gmd::memsim {

/// Ready-to-enqueue request stream, one Record per word-granular
/// request, in trace order.  Only MemorySystem replays it, always into
/// a fresh system.
struct PredecodedTrace {
  /// One word-granular request.
  struct Record {
    std::uint64_t tick = 0;  ///< CPU tick of the event it was split from.
    std::uint32_t row = 0;
    std::uint16_t bank = 0;  ///< Flat bank in the channel: rank * banks + bank.
    std::uint8_t channel = 0;
    std::uint8_t is_write = 0;
  };

  std::vector<Record> records;

  /// Endurance of the stream's writes, counted once at build: the most
  /// writes any 64 B line takes, and the number of distinct lines
  /// written.
  std::uint64_t max_line_writes = 0;
  std::uint64_t unique_lines_written = 0;

  /// The decode key this trace was built for (see key()); simulate()
  /// refuses a config with a different key.
  std::string config_key;

  std::size_t size() const { return records.size(); }

  class Builder;

  /// Predecodes a whole trace for `config`'s decode geometry.
  static PredecodedTrace build(const MemoryConfig& config,
                               std::span<const cpusim::MemoryEvent> trace);

  /// Pull-based chunk source: each call returns the next span of events
  /// (valid until the next call); an empty span ends the stream.  Lets
  /// callers predecode straight off a chunked container (e.g. a GMDT
  /// trace store's ChunkIterator) without materializing the whole event
  /// vector first.
  using EventChunkSource =
      std::function<std::span<const cpusim::MemoryEvent>()>;

  /// Streaming predecode: pulls chunks from `source` until it returns
  /// an empty span.  `size_hint` (total events, if known) pre-sizes the
  /// stream.  Equivalent to the span overload on the concatenation of
  /// the chunks.
  static PredecodedTrace build(const MemoryConfig& config,
                               const EventChunkSource& source,
                               std::size_t size_hint = 0);

  /// The fields the predecode depends on, serialized: mapping scheme,
  /// geometry, and access size.  Configs with equal keys — whatever
  /// their clocks — can share one predecoded trace.
  static std::string key(const MemoryConfig& config);
};

static_assert(sizeof(PredecodedTrace::Record) == 16,
              "a predecoded request must stay 16 bytes");

/// Builds one PredecodedTrace event by event, counting endurance as it
/// goes.  Validates the config at construction, so a geometry whose
/// channel or flat-bank index does not fit its Record field is refused
/// with Error(kConfig) (see MemoryConfig::validate).
class PredecodedTrace::Builder {
 public:
  explicit Builder(const MemoryConfig& config);

  /// Pre-sizes the stream for `events` events (one request each when
  /// no event is wider than a word).
  void reserve(std::size_t events) { out_.records.reserve(events); }

  /// Records appended so far.
  std::size_t size() const { return out_.records.size(); }

  /// Splits and decodes one event onto the end of the stream.
  void append(const cpusim::MemoryEvent& event);

  /// The finished stream, with its endurance totals.
  PredecodedTrace finish() &&;

 private:
  AddressDecoder decoder_;
  std::uint64_t word_;
  std::uint32_t banks_;
  PredecodedTrace out_;
  FlatCounter line_writes_;
};

}  // namespace gmd::memsim
