#include "gmd/memsim/predecoded_trace.hpp"

#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd::memsim {

PredecodedTrace::PredecodedTrace(const MemoryConfig& config)
    : config_key(key(config)) {}

void PredecodedTrace::reserve(std::size_t n) {
  request.reserve(n);
  channel.reserve(n);
  line.reserve(n);
}

void PredecodedTrace::append_event(const MemoryConfig& config,
                                   const AddressDecoder& decoder,
                                   const cpusim::MemoryEvent& event) {
  GMD_REQUIRE(event.size > 0, "event size must be positive");
  const std::uint64_t word = config.access_bytes();
  // Split wide accesses into word-granular requests, as a memory
  // controller's transaction splitter would (MemorySystem::enqueue_event
  // does the same split on the undecoded path).
  std::uint64_t first;
  std::uint64_t last;
  if ((word & (word - 1)) == 0) {  // power-of-two word: mask, not divide
    first = event.address & ~(word - 1);
    last = (event.address + event.size - 1) & ~(word - 1);
  } else {
    first = event.address / word * word;
    last = (event.address + event.size - 1) / word * word;
  }
  for (std::uint64_t addr = first; addr <= last; addr += word) {
    const DecodedAddress loc = decoder.decode(addr);
    Request& req = request.emplace_back();
    req.arrival = event.tick;  // stamped to a cycle at replay
    req.rank = loc.rank;
    req.bank = loc.bank;
    req.row = loc.row;
    req.column = loc.column;
    req.is_write = event.is_write;
    channel.push_back(loc.channel);
    line.push_back(addr / 64);
  }
}

PredecodedTrace PredecodedTrace::build(
    const MemoryConfig& config, std::span<const cpusim::MemoryEvent> trace) {
  const AddressDecoder decoder(config);
  PredecodedTrace out(config);
  out.reserve(trace.size());
  for (const cpusim::MemoryEvent& event : trace) {
    out.append_event(config, decoder, event);
  }
  return out;
}

PredecodedTrace PredecodedTrace::build(const MemoryConfig& config,
                                       const EventChunkSource& source,
                                       std::size_t size_hint) {
  const AddressDecoder decoder(config);
  PredecodedTrace out(config);
  if (size_hint > 0) out.reserve(size_hint);
  for (auto chunk = source(); !chunk.empty(); chunk = source()) {
    for (const cpusim::MemoryEvent& event : chunk) {
      out.append_event(config, decoder, event);
    }
  }
  return out;
}

std::string PredecodedTrace::key(const MemoryConfig& config) {
  std::ostringstream os;
  os << config.address_mapping << "|ch" << config.channels << "|rk"
     << config.ranks << "|bk" << config.banks << "|r" << config.rows << "|rb"
     << config.row_bytes << "|ab" << config.access_bytes();
  return os.str();
}

}  // namespace gmd::memsim
