#pragma once

/// \file formats.hpp
/// Trace serialization formats.
///
/// * gem5 text — the shape of gem5's `MemoryAccess` debug trace:
///     `<tick>: system.physmem: <Read|Write> of size <N> at address 0x<hex>`
/// * NVMain text — NVMain's trace-reader input:
///     `<cycle> <R|W> 0x<address> 0x<data> <threadId>`
///   NVMain requests are implicitly one memory word (64 bytes here), so
///   the size field is dropped on conversion, exactly as the paper's
///   converter drops it.
///
/// Binary storage is the GMDT chunk-indexed store (gmd/tracestore).

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"

namespace gmd::trace {

using cpusim::MemoryEvent;

/// Access size assumed when a format (NVMain) does not carry one.
inline constexpr std::uint32_t kNvmainWordBytes = 64;

/// Applies NVMain's request semantics to an event: the address is
/// aligned down to the memory word and the size widened to one word —
/// exactly what a format_nvmain_line/parse_nvmain_line round trip
/// produces.  The GMDT converter uses this so a store packed from a
/// gem5 trace holds byte-for-byte the events an NVMain text round trip
/// would yield.
inline MemoryEvent to_nvmain_event(const MemoryEvent& event) {
  return MemoryEvent{event.tick,
                     event.address / kNvmainWordBytes * kNvmainWordBytes,
                     kNvmainWordBytes, event.is_write};
}

// --- gem5 text format ------------------------------------------------

std::string format_gem5_line(const MemoryEvent& event);

/// Parses one gem5 trace line.  Returns nullopt for non-memory lines
/// (gem5 traces interleave other debug output; the converter skips them).
std::optional<MemoryEvent> parse_gem5_line(std::string_view line);

/// Streaming writer usable as a CPU trace sink.
class Gem5TraceWriter final : public cpusim::TraceSink {
 public:
  explicit Gem5TraceWriter(std::ostream& os) : os_(os) {}
  void on_event(const MemoryEvent& event) override;
  std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream& os_;
  std::uint64_t lines_ = 0;
};

/// Reads a whole gem5 trace; silently skips unparseable lines and
/// reports how many were skipped through `skipped` when non-null.
std::vector<MemoryEvent> read_gem5_trace(std::istream& is,
                                         std::uint64_t* skipped = nullptr);

// --- NVMain text format ----------------------------------------------

std::string format_nvmain_line(const MemoryEvent& event);

/// Parses one NVMain trace line; nullopt on malformed input.
std::optional<MemoryEvent> parse_nvmain_line(std::string_view line);

class NvmainTraceWriter final : public cpusim::TraceSink {
 public:
  explicit NvmainTraceWriter(std::ostream& os) : os_(os) {}
  void on_event(const MemoryEvent& event) override;
  std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream& os_;
  std::uint64_t lines_ = 0;
};

std::vector<MemoryEvent> read_nvmain_trace(std::istream& is);

}  // namespace gmd::trace
