#pragma once

/// \file writer.hpp
/// Streaming GMDT writer.  Implements cpusim::TraceSink so a workload
/// run on AtomicCpu emits a compressed, chunk-indexed store directly —
/// memory stays bounded by one chunk regardless of trace length.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gmd/common/atomic_file.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/tracestore/format.hpp"

namespace gmd::tracestore {

struct TraceStoreWriterOptions {
  /// Events per chunk.  Smaller chunks = finer random access and more
  /// parallel decode slack; larger chunks = slightly better compression
  /// (fewer per-chunk delta restarts) and a smaller directory.
  std::size_t events_per_chunk = kDefaultEventsPerChunk;
};

/// Writes a GMDT v1 store.  Events are appended via on_event()/append()
/// and the file is finalized by close(): chunk directory, then the real
/// header patched over the placeholder.  All bytes go to `<path>.tmp`
/// via gmd::AtomicFileWriter; close() fsyncs and renames it over the
/// target, so `path` either holds a complete store or does not exist —
/// a writer killed mid-stream (even by SIGKILL) leaves at worst a stale
/// temp file that remove_stale_temp_files() sweeps, never a torn or
/// silently short trace.  (The in-progress temp additionally carries a
/// placeholder header the reader rejects.)
class TraceStoreWriter final : public cpusim::TraceSink {
 public:
  explicit TraceStoreWriter(const std::string& path,
                            const TraceStoreWriterOptions& options = {});
  ~TraceStoreWriter() override;

  TraceStoreWriter(const TraceStoreWriter&) = delete;
  TraceStoreWriter& operator=(const TraceStoreWriter&) = delete;

  void on_event(const cpusim::MemoryEvent& event) override;
  void append(std::span<const cpusim::MemoryEvent> events);

  /// Flushes the pending chunk, writes the directory, patches the
  /// header, and atomically publishes the temp file at path().
  /// Idempotent.
  void close();

  bool closed() const { return closed_; }
  std::uint64_t events_written() const { return events_written_; }
  std::uint64_t chunks_written() const { return directory_.size(); }
  const std::string& path() const { return path_; }
  /// Where bytes accumulate until close() renames them over path().
  const std::string& temp_path() const { return file_.temp_path(); }

 private:
  void flush_chunk();

  std::string path_;
  AtomicFileWriter file_;
  std::size_t events_per_chunk_;
  std::vector<cpusim::MemoryEvent> pending_;  ///< Current chunk.
  std::string encode_buffer_;
  std::vector<ChunkEntry> directory_;
  std::uint64_t events_written_ = 0;
  std::uint64_t next_offset_ = kHeaderBytes;
  bool closed_ = false;
};

/// Convenience: writes `events` to `path` as one GMDT store.
void write_trace_store(const std::string& path,
                       std::span<const cpusim::MemoryEvent> events,
                       const TraceStoreWriterOptions& options = {});

}  // namespace gmd::tracestore
