#pragma once

/// \file predecoded_trace.hpp
/// A memory-event trace with the per-geometry preprocessing already
/// done: wide accesses split into word-granular requests, addresses
/// decoded to (channel, rank, bank, row, column), and 64B endurance line
/// indexes computed.  The decode depends only on the mapping geometry —
/// not on the clocks, timing, energy, or controller policy — so one
/// predecoded trace feeds every sweep point that shares those fields
/// (e.g. every clock pair and NVM tRCD variant of a channel count),
/// instead of re-running AddressDecoder::decode per event per config.
/// Requests keep their CPU tick; replay stamps each event's controller
/// cycle under the replaying config's clocks.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/address.hpp"
#include "gmd/memsim/channel.hpp"
#include "gmd/memsim/config.hpp"

namespace gmd::memsim {

/// Ready-to-enqueue request stream, one entry per word-granular
/// request, in trace order.  Replay stamps each request's cycle and
/// hands the Request straight to its channel — no per-event split or
/// decode left.
struct PredecodedTrace {
  /// Decoded requests.  `arrival` holds the CPU tick of the event the
  /// request was split from; MemorySystem::enqueue_predecoded stamps
  /// the controller cycle at replay.
  std::vector<Request> request;
  std::vector<std::uint32_t> channel;  ///< Target channel per request.
  std::vector<std::uint64_t> line;     ///< 64B line index (endurance).

  PredecodedTrace() = default;
  /// An empty stream for `config`'s decode geometry.
  explicit PredecodedTrace(const MemoryConfig& config);

  /// The decode key this trace was built for (see key()); simulate()
  /// refuses a config with a different key.
  std::string config_key;

  std::size_t size() const { return request.size(); }
  void reserve(std::size_t n);

  /// Splits and decodes one event onto the end of the stream.
  /// `decoder` must have been built from `config`, and the stream
  /// constructed for it.
  void append_event(const MemoryConfig& config, const AddressDecoder& decoder,
                    const cpusim::MemoryEvent& event);

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

}  // namespace gmd::memsim
