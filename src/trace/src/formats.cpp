#include "gmd/trace/formats.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"

namespace gmd::trace {

namespace {

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

}  // namespace

// --- gem5 text format --------------------------------------------------

std::string format_gem5_line(const MemoryEvent& event) {
  std::ostringstream os;
  os << event.tick << ": system.physmem: "
     << (event.is_write ? "Write" : "Read") << " of size " << event.size
     << " at address " << hex(event.address);
  return os.str();
}

std::optional<MemoryEvent> parse_gem5_line(std::string_view line) {
  // Expected tokens:
  // <tick>: system.physmem: <Read|Write> of size <N> at address 0x<hex>
  const auto tokens = split_whitespace(line);
  if (tokens.size() != 10) return std::nullopt;
  if (tokens[1] != "system.physmem:") return std::nullopt;
  if (tokens[3] != "of" || tokens[4] != "size" || tokens[6] != "at" ||
      tokens[7] != "address") {
    return std::nullopt;
  }

  auto tick_text = tokens[0];
  if (tick_text.empty() || tick_text.back() != ':') return std::nullopt;
  tick_text.remove_suffix(1);
  const auto tick = parse_uint(tick_text);
  if (!tick) return std::nullopt;

  bool is_write = false;
  if (tokens[2] == "Write") {
    is_write = true;
  } else if (tokens[2] != "Read") {
    return std::nullopt;
  }

  const auto size = parse_uint(tokens[5]);
  const auto address = parse_uint(tokens[8]);
  if (!size || !address || *size == 0) return std::nullopt;
  // tokens[9] is the trailing '.' gem5 prints; accept anything.

  return MemoryEvent{*tick, *address, static_cast<std::uint32_t>(*size),
                     is_write};
}

void Gem5TraceWriter::on_event(const MemoryEvent& event) {
  os_ << format_gem5_line(event) << " .\n";
  ++lines_;
}

std::vector<MemoryEvent> read_gem5_trace(std::istream& is,
                                         std::uint64_t* skipped) {
  std::vector<MemoryEvent> events;
  std::uint64_t skip_count = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (trim(line).empty()) continue;
    if (auto event = parse_gem5_line(line)) {
      events.push_back(*event);
    } else {
      ++skip_count;
    }
  }
  if (skipped) *skipped = skip_count;
  return events;
}

// --- NVMain text format --------------------------------------------------

std::string format_nvmain_line(const MemoryEvent& event) {
  // NVMain requests are whole memory words: align the address down so
  // the widened access does not straddle two words on re-read.
  const std::uint64_t aligned =
      event.address / kNvmainWordBytes * kNvmainWordBytes;
  std::ostringstream os;
  os << event.tick << ' ' << (event.is_write ? 'W' : 'R') << ' '
     << hex(aligned) << " 0x0 0";
  return os.str();
}

std::optional<MemoryEvent> parse_nvmain_line(std::string_view line) {
  const auto tokens = split_whitespace(line);
  if (tokens.size() != 4 && tokens.size() != 5) return std::nullopt;
  const auto cycle = parse_uint(tokens[0]);
  if (!cycle) return std::nullopt;
  bool is_write = false;
  if (tokens[1] == "W") {
    is_write = true;
  } else if (tokens[1] != "R") {
    return std::nullopt;
  }
  const auto address = parse_uint(tokens[2]);
  if (!address) return std::nullopt;
  // tokens[3] is the data payload, tokens[4] the optional thread id;
  // both are ignored by the memory model.
  return MemoryEvent{*cycle, *address, kNvmainWordBytes, is_write};
}

void NvmainTraceWriter::on_event(const MemoryEvent& event) {
  os_ << format_nvmain_line(event) << '\n';
  ++lines_;
}

std::vector<MemoryEvent> read_nvmain_trace(std::istream& is) {
  std::vector<MemoryEvent> events;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    auto event = parse_nvmain_line(line);
    GMD_REQUIRE(event.has_value(),
                "NVMain trace line " << line_no << " is malformed: '" << line
                                     << "'");
    events.push_back(*event);
  }
  return events;
}

}  // namespace gmd::trace
