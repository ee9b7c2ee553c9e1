#include "gmd/memsim/predecoded_trace.hpp"

#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd::memsim {

PredecodedTrace::Builder::Builder(const MemoryConfig& config)
    : decoder_(config), word_(config.access_bytes()), banks_(config.banks) {
  // The Record's 8-bit channel and 16-bit flat-bank fields.
  GMD_REQUIRE_AS(ErrorCode::kConfig, config.channels <= 256,
                 "a predecoded stream holds at most 256 channels, got "
                     << config.channels);
  GMD_REQUIRE_AS(
      ErrorCode::kConfig,
      static_cast<std::uint64_t>(config.ranks) * config.banks <= 65536,
      "a predecoded stream holds at most 65536 banks per channel, got "
          << config.ranks << " ranks x " << config.banks << " banks");
  out_.config_key = key(config);
}

void PredecodedTrace::Builder::append(const cpusim::MemoryEvent& event) {
  GMD_REQUIRE(event.size > 0, "event size must be positive");
  // Split wide accesses into word-granular requests, as a memory
  // controller's transaction splitter would (MemorySystem::enqueue_event
  // does the same split on the undecoded path).
  std::uint64_t first;
  std::uint64_t last;
  if ((word_ & (word_ - 1)) == 0) {  // power-of-two word: mask, not divide
    first = event.address & ~(word_ - 1);
    last = (event.address + event.size - 1) & ~(word_ - 1);
  } else {
    first = event.address / word_ * word_;
    last = (event.address + event.size - 1) / word_ * word_;
  }
  for (std::uint64_t addr = first; addr <= last; addr += word_) {
    const DecodedAddress loc = decoder_.decode(addr);
    out_.records.push_back(
        {event.tick,  // stamped to a cycle at replay
         loc.row, static_cast<std::uint16_t>(loc.rank * banks_ + loc.bank),
         static_cast<std::uint8_t>(loc.channel),
         static_cast<std::uint8_t>(event.is_write)});
    if (event.is_write) line_writes_.bump(addr / 64);
  }
}

PredecodedTrace PredecodedTrace::Builder::finish() && {
  out_.max_line_writes = line_writes_.max_count();
  out_.unique_lines_written = line_writes_.size();
  return std::move(out_);
}

PredecodedTrace PredecodedTrace::build(
    const MemoryConfig& config, std::span<const cpusim::MemoryEvent> trace) {
  Builder builder(config);
  builder.reserve(trace.size());
  for (const cpusim::MemoryEvent& event : trace) builder.append(event);
  return std::move(builder).finish();
}

PredecodedTrace PredecodedTrace::build(const MemoryConfig& config,
                                       const EventChunkSource& source,
                                       std::size_t size_hint) {
  Builder builder(config);
  if (size_hint > 0) builder.reserve(size_hint);
  for (auto chunk = source(); !chunk.empty(); chunk = source()) {
    for (const cpusim::MemoryEvent& event : chunk) builder.append(event);
  }
  return std::move(builder).finish();
}

std::string PredecodedTrace::key(const MemoryConfig& config) {
  std::ostringstream os;
  os << config.address_mapping << "|ch" << config.channels << "|rk"
     << config.ranks << "|bk" << config.banks << "|r" << config.rows << "|rb"
     << config.row_bytes << "|ab" << config.access_bytes();
  return os.str();
}

}  // namespace gmd::memsim
