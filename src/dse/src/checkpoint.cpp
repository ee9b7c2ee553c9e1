#include "gmd/dse/checkpoint.hpp"

#include <bit>
#include <iterator>
#include <optional>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::dse {

namespace {

/// The header tokens that must match for a journal to resume `key`.
std::string identity(const JournalKey& key) {
  std::ostringstream out;
  out << "gmd-sweep-journal v1 trace=" << to_hex16(key.trace_hash)
      << " points=" << to_hex16(key.points_hash) << " count=" << key.num_points;
  return out.str();
}

/// Record writer: integers in decimal, doubles as their IEEE-754 bit
/// pattern in hex so parsing them back is exact — resumed rows must be
/// bit-identical to fresh ones.
struct Writer {
  std::ostringstream out;

  void num(std::uint64_t value) { out << ' ' << value; }
  void real(double value) {
    out << ' ' << to_hex16(std::bit_cast<std::uint64_t>(value));
  }
  template <typename List>
  void count(const List& list) {
    num(list.size());
  }
  template <typename List>
  void trailer(const List& list) {
    if (list.empty()) return;
    out << " ci";
    count(list);
  }
};

/// The reading mirror of Writer; throws Error(kIo) on a bad token.
struct Reader {
  std::istringstream in;
  const std::string& path;

  template <typename T>
  void num(T& value) {
    std::uint64_t parsed = 0;
    GMD_REQUIRE_AS(ErrorCode::kIo, static_cast<bool>(in >> parsed),
                   "corrupt sweep journal '" << path << "'");
    value = static_cast<T>(parsed);
  }
  void real(double& value) {
    std::string token;
    in >> token;
    const auto bits = parse_hex16(token);
    GMD_REQUIRE_AS(ErrorCode::kIo, bits.has_value(),
                   "corrupt sweep journal '" << path << "': bad hex token '"
                                             << token << "'");
    value = std::bit_cast<double>(*bits);
  }
  template <typename List>
  void count(List& list) {
    std::size_t size = 0;
    num(size);
    list.resize(size);
  }
  template <typename List>
  void trailer(List& list) {
    std::string tag;
    if (!(in >> tag)) return;
    GMD_REQUIRE_AS(ErrorCode::kIo, tag == "ci",
                   "corrupt sweep journal '" << path << "': unexpected '"
                                             << tag << "' trailer");
    count(list);
  }
};

/// An ok row's fields after its index and attempts, in record order: the
/// one field list behind both encode() (Io = Writer) and decode()
/// (Io = Reader).
template <typename Io, typename Row>
void metric_fields(Io& io, Row& row) {
  auto& m = row.metrics;
  io.num(m.total_reads);
  io.num(m.total_writes);
  io.num(m.channels);
  io.num(m.banks_total);
  io.num(m.row_hits);
  io.num(m.row_misses);
  io.num(m.max_line_writes);
  io.num(m.unique_lines_written);
  io.real(m.avg_power_per_channel_w);
  io.real(m.avg_bandwidth_per_bank_mbs);
  io.real(m.avg_latency_cycles);
  io.real(m.avg_total_latency_cycles);
  io.real(m.avg_reads_per_channel);
  io.real(m.avg_writes_per_channel);
  io.real(m.execution_seconds);
  io.real(m.dynamic_energy_j);
  io.real(m.background_energy_j);
  io.count(m.epochs);
  for (auto& epoch : m.epochs) {
    io.num(epoch.epoch);
    io.num(epoch.reads);
    io.num(epoch.writes);
    io.real(epoch.avg_total_latency_cycles);
    io.real(epoch.bandwidth_mbs);
  }
  // Optional trailer of a chunk-sampled row: `ci <k>` and its intervals.
  io.trailer(row.metric_ci);
  for (auto& interval : row.metric_ci) {
    io.real(interval.lo);
    io.real(interval.hi);
  }
}

std::string encode(std::size_t index, const SweepRow& row) {
  Writer w;
  w.out << (row.ok() ? "row" : "fail");
  w.num(index);
  w.num(row.attempts);
  if (!row.ok()) {
    w.num(static_cast<std::uint64_t>(row.error_code));
    w.num(static_cast<std::uint64_t>(row.outcome));
    if (!row.error.empty()) w.out << ' ' << row.error;
    return w.out.str();
  }
  metric_fields(w, row);
  return w.out.str();
}

std::pair<std::size_t, SweepRow> decode(const std::string& record,
                                        const JournalKey& key,
                                        const std::string& path) {
  Reader r{std::istringstream(record), path};
  std::string tag;
  r.in >> tag;
  GMD_REQUIRE_AS(ErrorCode::kIo, tag == "row" || tag == "fail",
                 "corrupt sweep journal '" << path << "': unexpected '" << tag
                                           << "' record");
  std::size_t index = 0;
  SweepRow row;
  r.num(index);
  GMD_REQUIRE_AS(ErrorCode::kIo, index < key.num_points,
                 "corrupt sweep journal '" << path << "': " << tag
                                           << " index out of range");
  r.num(row.attempts);
  if (tag == "fail") {
    std::uint64_t code = 0;
    std::uint64_t outcome = 0;
    r.num(code);
    r.num(outcome);
    GMD_REQUIRE_AS(ErrorCode::kIo,
                   code <= static_cast<std::uint64_t>(kLastErrorCode),
                   "corrupt sweep journal '" << path << "': bad error code");
    GMD_REQUIRE_AS(
        ErrorCode::kIo,
        outcome == static_cast<std::uint64_t>(PointOutcome::kFailed) ||
            outcome == static_cast<std::uint64_t>(PointOutcome::kTimedOut),
        "corrupt sweep journal '" << path << "': bad fail outcome");
    row.error_code = static_cast<ErrorCode>(code);
    row.outcome = static_cast<PointOutcome>(outcome);
    // The message is the rest of the record, newlines included.
    row.error.assign(std::istreambuf_iterator<char>(r.in), {});
    if (!row.error.empty() && row.error.front() == ' ') row.error.erase(0, 1);
    return {index, std::move(row)};
  }
  metric_fields(r, row);
  return {index, std::move(row)};
}

}  // namespace

std::uint64_t trace_checksum(std::span<const cpusim::MemoryEvent> trace) {
  Fnv1a h;
  h.mix(trace.size());
  for (const auto& event : trace) {
    h.mix(event.tick);
    h.mix(event.address);
    h.mix(event.size);
    h.mix(event.is_write ? 1 : 0);
  }
  return h.state;
}

std::uint64_t points_checksum(std::span<const DesignPoint> points) {
  Fnv1a h;
  h.mix(points.size());
  for (const auto& p : points) {
    h.mix(static_cast<std::uint64_t>(p.kind));
    h.mix(p.cpu_freq_mhz);
    h.mix(p.ctrl_freq_mhz);
    h.mix(p.channels);
    h.mix(p.trcd);
    h.mix_double(p.dram_fraction);
  }
  return h.state;
}

JournalKey make_journal_key(std::span<const DesignPoint> points,
                            std::span<const cpusim::MemoryEvent> trace) {
  return JournalKey{trace_checksum(trace), points_checksum(points),
                    points.size()};
}

std::uint64_t trace_checksum(const tracestore::TraceStoreReader& store) {
  // The store's header and chunk directory already carry FNV-1a
  // checksums of every payload byte, so the trace identity is a hash of
  // hashes — no re-decode of the events.
  return store.content_checksum();
}

JournalKey make_journal_key(std::span<const DesignPoint> points,
                            const tracestore::TraceStoreReader& store) {
  return JournalKey{trace_checksum(store), points_checksum(points),
                    points.size()};
}

JournalKey sweep_identity(JournalKey base, const SweepOptions& options) {
  if (options.sample_fraction < 1.0) {
    Fnv1a h;
    h.mix(base.points_hash);
    h.mix_double(options.sample_fraction);
    h.mix(options.sample_seed);
    h.mix(options.sample_warmup_chunks);
    h.mix(options.sampling_chunk_events);
    base.points_hash = h.state;
  }
  return base;
}

SweepJournal::SweepJournal(std::string path, const JournalKey& key,
                           std::string owner)
    : key_(key),
      owner_(std::move(owner)),
      log_(std::move(path), identity(key),
           owner_.empty() ? std::string() : "owner=" + owner_) {}

std::vector<std::pair<std::size_t, SweepRow>> SweepJournal::load() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::size_t, SweepRow>> rows;
  log_.open([&](const std::string& record) {
    rows.push_back(decode(record, key_, log_.path()));
  });
  return rows;
}

void SweepJournal::record(std::size_t index, const SweepRow& row) {
  const std::string payload = encode(index, row);
  std::lock_guard<std::mutex> lock(mutex_);
  log_.append(payload);
}

std::size_t SweepJournal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_.size();
}

JournalScan scan_journal(const std::string& path, const JournalKey& key) {
  JournalScan result;
  std::ostringstream warning;
  try {
    const std::optional<RecordScan> scan =
        RecordLog(path, identity(key)).read([&](const std::string& record) {
          result.rows.push_back(decode(record, key, path));
        });
    if (scan && !scan->corruption.empty()) {
      warning << '[' << to_string(ErrorCode::kIo)
              << "] corrupt sweep journal '" << path
              << "': " << scan->corruption << "; later rows dropped";
    }
  } catch (const Error& e) {
    result.rows.clear();
    warning << '[' << to_string(e.code()) << "] " << e.what();
  }
  result.warning = warning.str();
  return result;
}

}  // namespace gmd::dse
