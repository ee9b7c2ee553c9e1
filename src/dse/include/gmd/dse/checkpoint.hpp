#pragma once

/// \file checkpoint.hpp
/// Sweep checkpoint journal: persists completed sweep rows so an
/// interrupted labeled-data-generation run resumes where it stopped
/// instead of re-simulating hours of finished points.
///
/// The journal is a gmd::RecordLog (record_log.hpp): every line ends in
/// its own FNV-1a checksum, each record is appended and fdatasync'd
/// once, and a torn or corrupt tail is cut back to the last valid
/// record.  Record payloads:
///
///   gmd-sweep-journal v1 trace=<16-hex> points=<16-hex> count=<n> [owner=<id>]
///   row <index> <attempts> <8 u64 fields> <9 double fields> <nepochs>
///       [<epoch> <reads> <writes> <2 double fields> ...]
///       [ci <k> <lo hi doubles ...>]
///   fail <index> <attempts> <code> <outcome> [message...]
///
/// The first line is the log's identity header.  The `ci` trailer is
/// present only on rows of a chunk-sampled sweep (SweepRow::metric_ci);
/// a sampled sweep also mixes its sampling parameters into the points=
/// hash, so sampled and exhaustive journals can never resume each other.
///
/// The optional `owner=` header token namespaces per-worker journals in
/// a distributed sweep run: every worker appends to its own journal
/// file (single writer per file, so no cross-process locking) and the
/// supervisor merges them by point index, scanning read-only while the
/// workers are still appending.  `fail` records mark points that
/// reached a terminal non-ok outcome — distributed workers persist them
/// so the supervisor can tell "this point failed" from "this point was
/// never run" and never re-issues a deterministically failing shard
/// forever.  Single-process sweeps journal only ok rows (failures
/// re-simulate on resume).  A fail message may span lines; the log
/// escapes it.
///
/// The header hash pair is FNV-1a 64 over the trace events and over the
/// design-point list; resume refuses a journal whose hashes or point
/// count do not match the current invocation.  Doubles are stored as
/// IEEE-754 bit patterns in hex, so resumed rows are bit-identical to
/// the rows an uninterrupted sweep would have produced.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gmd/common/record_log.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/dse/design_point.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::tracestore {
class TraceStoreReader;
}

namespace gmd::dse {

/// Identity of a sweep invocation: a journal is only resumable against
/// the same trace and point list it was written for.
struct JournalKey {
  std::uint64_t trace_hash = 0;
  std::uint64_t points_hash = 0;
  std::size_t num_points = 0;

  friend bool operator==(const JournalKey&, const JournalKey&) = default;
};

/// FNV-1a 64 checksum of a memory trace (ticks, addresses, sizes, ops).
std::uint64_t trace_checksum(std::span<const cpusim::MemoryEvent> trace);

/// FNV-1a 64 checksum of a design-point list (all fields, in order).
std::uint64_t points_checksum(std::span<const DesignPoint> points);

JournalKey make_journal_key(std::span<const DesignPoint> points,
                            std::span<const cpusim::MemoryEvent> trace);

/// Trace identity straight off a GMDT store's header and chunk
/// directory (a hash of the per-chunk payload checksums) — no event
/// decode or whole-file re-hash.  Note this is a different identity
/// domain than trace_checksum(events): a journal keyed against a store
/// is resumable only against the same store content.
std::uint64_t trace_checksum(const tracestore::TraceStoreReader& store);

JournalKey make_journal_key(std::span<const DesignPoint> points,
                            const tracestore::TraceStoreReader& store);

/// The identity a sweep invocation actually journals under: `base` as
/// computed by make_journal_key, with the sampling geometry (fraction,
/// seed, warmup, chunking) mixed into points_hash when `options`
/// samples.  Sampled rows are estimates for one specific geometry, so a
/// journal written under one geometry — or an exhaustive one — must
/// never resume another.  Single-process checkpointing and the
/// distributed run directory both key off this, which is what makes a
/// distributed run resumable against the same identity rules.
JournalKey sweep_identity(JournalKey base, const SweepOptions& options);

/// Append-only journal of terminal sweep rows.  Thread-safe: sweep
/// workers record rows concurrently, one appended, synced record each.
class SweepJournal {
 public:
  /// Binds the journal to `path` for the sweep identified by `key`.
  /// A non-empty `owner` (a distributed worker id) is written into the
  /// header as a namespace tag; it does not affect load() matching.
  /// Nothing is written until the first record().
  SweepJournal(std::string path, const JournalKey& key,
               std::string owner = {});

  /// Reads an existing journal at `path` and returns its terminal rows
  /// as (point index, row) pairs — ok rows plus any `fail` records —
  /// then continues that journal: later records append after them.  A
  /// torn or corrupt tail is truncated back to the last valid record
  /// with a GMD_LOG_WARN, and a journal without a valid header loads
  /// as empty the same way.  A missing file yields an empty result.
  /// Throws Error(kConfig) when the header carries another identity
  /// (wrong trace, wrong point list, not a sweep journal) and
  /// Error(kIo) when a checksum-valid record does not parse.  On throw
  /// the file is left as it was, and the first record() starts a fresh
  /// journal for the current invocation.
  std::vector<std::pair<std::size_t, SweepRow>> load();

  /// Appends one terminal row and syncs it.  An ok row becomes a `row`
  /// record; a failed/timed-out row becomes a `fail` record (outcome,
  /// code, and message survive the round trip).  Unless load()
  /// succeeded first, the first record() replaces any file at `path`
  /// with a fresh journal.
  void record(std::size_t index, const SweepRow& row);

  /// Number of rows in the journal: loaded plus recorded.
  std::size_t size() const;

  const std::string& path() const { return log_.path(); }
  const std::string& owner() const { return owner_; }

 private:
  JournalKey key_;
  std::string owner_;
  mutable std::mutex mutex_;
  RecordLog log_;
};

/// Tolerant read-only scan of a (possibly foreign, possibly rotten,
/// possibly still growing) journal, for the distributed supervisor and
/// workers scanning each other's files.  It never truncates and never
/// throws.  An unterminated last record is an append in flight and is
/// skipped silently.  A record that fails its checksum ends the rows
/// with a message in `warning`; a journal that does not parse or was
/// written for a different sweep yields no rows plus the typed failure
/// message.  Lost rows are simply re-issued work.
struct JournalScan {
  std::vector<std::pair<std::size_t, SweepRow>> rows;
  /// Empty when the journal scanned cleanly; else "[<code>] <reason>".
  std::string warning;
};

JournalScan scan_journal(const std::string& path, const JournalKey& key);

}  // namespace gmd::dse
