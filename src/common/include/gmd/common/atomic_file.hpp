#pragma once

/// \file atomic_file.hpp
/// Crash-safe whole-file writes, shared by every artifact producer in
/// the pipeline (GMDT trace store, CSV datasets, serialized models,
/// distributed run meta, leases and task files).  Journals that grow one
/// record at a time use gmd::RecordLog (record_log.hpp) instead.
///
/// The protocol is the classic temp-then-rename: content is written to
/// `<path>.tmp`, flushed and fsync'd, and the temp file is renamed over
/// the target.  A crash (including SIGKILL) at any instant therefore
/// leaves either the previous complete artifact or no artifact at all —
/// never a torn file.  A stale `<path>.tmp` may survive a crash; it is
/// harmless (readers never look at it) and remove_stale_temp_files()
/// sweeps them on the next run.

#include <cstdint>
#include <fstream>
#include <functional>
#include <ios>
#include <string>

namespace gmd {

/// Incremental writer for the temp-then-rename protocol.  Stream bytes
/// into stream(), then commit() to publish them at `path` atomically.
/// Destroying the writer without commit() discards the temp file and
/// leaves any previous artifact at `path` untouched.
class AtomicFileWriter {
 public:
  /// Opens `<path>.tmp` for writing (truncating any stale temp).
  /// `extra_mode` is OR'd into the open mode (e.g. std::ios::binary).
  /// Throws Error(kIo) when the temp file cannot be opened.
  explicit AtomicFileWriter(std::string path,
                            std::ios::openmode extra_mode = {});

  /// Discards the temp file when commit() was never reached.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The output stream feeding the temp file.
  std::ostream& stream() { return out_; }

  /// Flushes, fsyncs, closes, and renames the temp file over `path`.
  /// Throws Error(kIo) when any step fails (the temp file is discarded,
  /// the old artifact survives).  Idempotent after success.
  void commit();

  bool committed() const { return committed_; }
  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

/// One-shot atomic write: `fill` receives the temp-file stream, then the
/// file is committed.  Throws Error(kIo) on any I/O failure.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& fill,
                       std::ios::openmode extra_mode = {});

/// Atomic write of a ready-made byte string.
void atomic_write_text(const std::string& path, std::string_view content);

/// FNV-1a 64 over a file's bytes — the artifact-identity hash used by
/// the pipeline manifest.  Throws Error(kIo) when the file is missing
/// or unreadable.
std::uint64_t fnv1a_file(const std::string& path);

/// Recursively removes `*.tmp` files under `dir` (stale leftovers from
/// a crashed writer).  Returns how many were removed; a missing
/// directory yields 0.
std::size_t remove_stale_temp_files(const std::string& dir);

/// Atomic claim by rename: moves `from` over `to` and reports whether
/// THIS call won.  rename(2) is atomic and consumes the source, so of N
/// concurrent claimants of the same `from` exactly one gets true; the
/// losers see the source vanish and get false.  This is the mutual-
/// exclusion primitive of the distributed sweep's lease protocol (a
/// task file can only be renamed into the lease directory once per
/// generation).  Throws Error(kIo) on any failure other than the
/// source disappearing.  Requires both paths on one filesystem.
bool atomic_rename_claim(const std::string& from, const std::string& to);

/// Best-effort fsync of the directory containing `path`, so a new or
/// renamed directory entry is durable (it lives in the parent's data
/// blocks).  No-op on non-POSIX builds.
void sync_parent_dir(const std::string& path);

/// Best-effort unlink; true when the file existed and was removed.
/// Never throws — a missing file is the desired end state.
bool remove_file_if_exists(const std::string& path) noexcept;

}  // namespace gmd
