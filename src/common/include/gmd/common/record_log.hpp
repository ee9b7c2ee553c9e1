#pragma once

/// \file record_log.hpp
/// Append-only, line-framed record log: the one durable format under
/// the sweep checkpoint journal (and so every distributed per-worker
/// journal), the pipeline stage manifest and the explorer's rounds
/// trajectory.
///
/// File format, one record per line:
///
///   <payload> <16-hex FNV-1a 64 of the payload as stored>\n
///
/// Record 0 is the caller's identity header; the caller's records
/// follow in append order.  A payload's '\\' and newline bytes are
/// stored as "\\\\" and "\\n", so every payload round-trips and a
/// record is always exactly one line.
///
/// One torn-tail rule: a log is the longest prefix of complete lines
/// whose checksums verify, starting with the header.  append() writes
/// one line and fdatasync()s it, so a crash mid-append can leave only
/// an incomplete last line, and the bytes a journal writes grow
/// linearly with its records.  Adopting an existing log for writing
/// (RecordLog::open) truncates everything past the valid prefix with a
/// typed warning.  A read-only scan (scan_record_log, RecordLog::read)
/// never truncates, and skips an unterminated last line without
/// complaint: it may be an append in flight from a live writer.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gmd {

/// What a read-only scan found at a log's path.
struct RecordScan {
  /// Payloads of the valid prefix, unescaped; records[0] is the header.
  /// Empty when not even the header is complete and valid.
  std::vector<std::string> records;
  std::uint64_t valid_bytes = 0;  ///< Length of the valid prefix.
  std::uint64_t file_bytes = 0;   ///< Length of the file as read.
  /// Why the prefix ends at a complete line: which record failed its
  /// checksum or framing.  Empty when the file is valid to its end or
  /// only an unterminated last line follows the prefix.
  std::string corruption;
};

/// Reads the log at `path` without modifying it.  nullopt when no file
/// exists; throws Error(kIo) when one exists but cannot be read.
std::optional<RecordScan> scan_record_log(const std::string& path);

/// Receives one record payload (header excluded), in log order.
using RecordParser = std::function<void(const std::string&)>;

/// Writer for one log file.  Single writer per file; not thread-safe
/// (callers that append from several threads serialize on their own
/// mutex).
class RecordLog {
 public:
  /// Binds to `path`.  Record 0 is `identity`, followed by ` <tag>`
  /// when a tag is given: the identity decides which logs this one may
  /// continue, the tag (a journal's owner=) only labels the writer.
  /// Nothing is read or written until read(), open() or append().
  RecordLog(std::string path, std::string identity, std::string tag = {});
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Reads the log at path() without modifying it: checks that its
  /// header carries this log's identity, then hands every later record
  /// to `parse`.  Returns the scan, or nullopt when no file exists.
  /// Throws Error(kConfig) for a header with another identity, and
  /// passes on whatever `parse` throws.
  std::optional<RecordScan> read(const RecordParser& parse) const;

  /// read(), then continues the log after the records it read: cuts
  /// whatever follows the valid prefix, with a GMD_LOG_WARN tagged
  /// [io] when bytes are dropped or no valid header survives (then the
  /// next append() starts a fresh file).  When read() throws, the file
  /// is left as it was and the next append() starts a fresh log.
  void open(const RecordParser& parse);

  /// Appends one record and fdatasync()s it.  Until open() adopted an
  /// existing log, the first append replaces whatever is at the path
  /// with a fresh log holding the header.  Throws Error(kIo) on any
  /// failure; the next append first cuts off what the failed one may
  /// have left behind.
  void append(std::string_view payload);

  /// Records after the header: those resumed plus those appended.
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  void resume(const RecordScan& scan);
  void create();
  void close() noexcept;
  void write(std::string_view bytes);   ///< At end_, unsynced.
  void commit(std::string_view line);   ///< write + fdatasync + advance.
  void cut_tail();                      ///< Truncate to end_ and sync.

  std::string path_;
  std::string identity_;
  std::string header_;
  int fd_ = -1;
  std::uint64_t end_ = 0;  ///< Bytes of complete, synced records.
  bool dirty_ = false;     ///< A failed append may have left bytes at end_.
  std::size_t size_ = 0;
};

}  // namespace gmd
