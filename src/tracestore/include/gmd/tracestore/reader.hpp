#pragma once

/// \file reader.hpp
/// Zero-copy GMDT reader over a read-only file mapping.
///
/// Opening a store validates the fixed header and the chunk directory
/// (magic, version, checksums, bounds) but touches no payload bytes —
/// cost is independent of trace size.  Chunks then decode on demand:
/// randomly (decode_chunk), sequentially (ChunkIterator, bounded
/// memory), or all at once in parallel on a ThreadPool (read_all).
/// Every decode verifies the chunk's FNV-1a checksum first, so a
/// corrupted store fails with a typed error naming the chunk instead of
/// feeding garbage events into a sweep.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/tracestore/format.hpp"
#include "gmd/tracestore/mapped_file.hpp"

namespace gmd {
class ThreadPool;
}

namespace gmd::tracestore {

class TraceStoreReader {
 public:
  /// Maps `path` and validates header + chunk directory.  Throws
  /// Error(kIo) when the file cannot be mapped and Error(kTrace) when
  /// it is not a structurally valid GMDT v1 store.
  explicit TraceStoreReader(const std::string& path);

  const Header& header() const { return header_; }
  std::uint64_t num_events() const { return header_.event_count; }
  std::size_t num_chunks() const { return directory_.size(); }
  const ChunkEntry& chunk_info(std::size_t index) const;
  const std::string& path() const { return file_.path(); }
  /// Total bytes of the mapped store file.
  std::size_t file_bytes() const { return file_.size(); }

  /// Decodes chunk `index` into `out` (replacing its contents) after
  /// verifying the chunk checksum.  Throws Error(kTrace) naming the
  /// chunk on checksum mismatch or malformed payload.
  void decode_chunk(std::size_t index,
                    std::vector<cpusim::MemoryEvent>& out) const;
  std::vector<cpusim::MemoryEvent> decode_chunk(std::size_t index) const;

  /// Decodes the whole store, sequentially.
  std::vector<cpusim::MemoryEvent> read_all() const;
  /// Decodes the whole store with one task per chunk on `pool`; each
  /// chunk decodes straight into its slice of the result (no per-chunk
  /// copies).  Identical output to the sequential overload.
  std::vector<cpusim::MemoryEvent> read_all(ThreadPool& pool) const;

  /// Index of the first chunk whose max_tick >= `tick` (chunks are in
  /// stream order; for tick-sorted traces this is the seek target).
  /// Returns num_chunks() when every chunk ends before `tick`.
  std::size_t first_chunk_at_or_after(std::uint64_t tick) const;

  /// Decodes and checksums every chunk, discarding the events — a full
  /// integrity scan (gmd trace verify).  Throws on the first bad
  /// chunk.
  void verify() const;

  /// FNV-1a identity of the store content, computed from the header and
  /// the per-chunk payload checksums already in the directory — O(chunks),
  /// no event decode.  Used by the sweep checkpoint journal.
  std::uint64_t content_checksum() const;

 private:
  void decode_into(std::size_t index, cpusim::MemoryEvent* out) const;

  MappedFile file_;
  Header header_;
  std::vector<ChunkEntry> directory_;
};

/// Forward-only cursor over a store's chunks; buffers one decoded chunk
/// at a time, so iterating a multi-gigabyte store needs chunk-sized
/// memory.  Usage:
///
///   ChunkIterator it(reader);
///   while (it.next()) consume(it.events());
class ChunkIterator {
 public:
  explicit ChunkIterator(const TraceStoreReader& reader) : reader_(&reader) {}

  /// Advances to the next chunk; false when the store is exhausted.
  bool next();
  /// Events of the current chunk (valid until the next next()).
  std::span<const cpusim::MemoryEvent> events() const { return buffer_; }
  /// Index of the current chunk.
  std::size_t index() const { return next_index_ - 1; }

 private:
  const TraceStoreReader* reader_;
  std::size_t next_index_ = 0;
  std::vector<cpusim::MemoryEvent> buffer_;
};

}  // namespace gmd::tracestore
