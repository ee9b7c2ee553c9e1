#include "gmd/common/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/logging.hpp"

namespace gmd {

namespace {

/// " <16 hex digits>" after every stored payload.
constexpr std::size_t kChecksumField = 17;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw Error(ErrorCode::kIo, what + " record log '" + path +
                                  "': " + std::strerror(errno));
}

/// One complete line: the escaped payload, its checksum, a newline.
std::string frame(std::string_view payload) {
  std::string line;
  for (const char c : payload) {
    if (c == '\\' || c == '\n') line += '\\';
    line += c == '\n' ? 'n' : c;
  }
  const std::uint64_t checksum = fnv1a_bytes(line.data(), line.size());
  line += ' ';
  line += to_hex16(checksum);
  line += '\n';
  return line;
}

/// The payload of one line (without its newline), or nullopt when the
/// framing, checksum or escaping does not hold.
std::optional<std::string> unframe(std::string_view line) {
  if (line.size() < kChecksumField ||
      line[line.size() - kChecksumField] != ' ') {
    return std::nullopt;
  }
  const std::string_view stored = line.substr(0, line.size() - kChecksumField);
  if (parse_hex16(line.substr(stored.size() + 1)) !=
      fnv1a_bytes(stored.data(), stored.size())) {
    return std::nullopt;
  }
  std::string payload;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    char c = stored[i];
    if (c == '\\') {
      if (++i == stored.size() || (stored[i] != '\\' && stored[i] != 'n')) {
        return std::nullopt;
      }
      c = stored[i] == 'n' ? '\n' : '\\';
    }
    payload += c;
  }
  return payload;
}

}  // namespace

std::optional<RecordScan> scan_record_log(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  GMD_REQUIRE_AS(ErrorCode::kIo, in.is_open() && !in.bad(),
                 "cannot read record log '" << path << "'");

  RecordScan scan;
  scan.file_bytes = bytes.size();
  std::size_t pos = 0;
  for (std::size_t nl; (nl = bytes.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    auto payload = unframe(std::string_view(bytes).substr(pos, nl - pos));
    if (!payload) {
      scan.corruption = "record ";
      scan.corruption += std::to_string(scan.records.size());
      scan.corruption += " fails its checksum";
      break;
    }
    scan.records.push_back(std::move(*payload));
  }
  scan.valid_bytes = pos;
  return scan;
}

RecordLog::RecordLog(std::string path, std::string identity, std::string tag)
    : path_(std::move(path)),
      identity_(std::move(identity)),
      header_(tag.empty() ? identity_ : identity_ + ' ' + tag) {}

RecordLog::~RecordLog() { close(); }

void RecordLog::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<RecordScan> RecordLog::read(const RecordParser& parse) const {
  std::optional<RecordScan> scan = scan_record_log(path_);
  if (!scan || scan->records.empty()) return scan;
  const std::string& header = scan->records.front();
  GMD_REQUIRE_AS(ErrorCode::kConfig,
                 header == identity_ || header.starts_with(identity_ + ' '),
                 "'" << path_ << "' was written for a different identity ('"
                     << header << "'); refusing to resume");
  std::for_each(scan->records.begin() + 1, scan->records.end(), parse);
  return scan;
}

void RecordLog::open(const RecordParser& parse) {
  if (const std::optional<RecordScan> scan = read(parse)) resume(*scan);
}

void RecordLog::resume(const RecordScan& scan) {
  close();
  const std::uint64_t dropped = scan.file_bytes - scan.valid_bytes;
  size_ = scan.records.empty() ? 0 : scan.records.size() - 1;
  if (dropped > 0 || scan.records.empty()) {
    GMD_LOG_WARN << "record log '" << path_ << "' ["
                 << to_string(ErrorCode::kIo) << "]: "
                 << (!scan.corruption.empty() ? scan.corruption
                     : scan.records.empty()   ? "no complete header record"
                                              : "unterminated last record")
                 << "; keeping " << size_ << " record(s), truncating "
                 << dropped << " byte(s)";
  }
  if (scan.records.empty()) return;  // The next append starts afresh.
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) fail("cannot open", path_);
  end_ = scan.valid_bytes;
  if (dropped > 0) cut_tail();
}

void RecordLog::append(std::string_view payload) {
  if (fd_ < 0) create();
  if (dirty_) cut_tail();
  const std::string line = frame(payload);
  if (auto kind = faultinject::fire("record_log.append")) {
    if (*kind == faultinject::FaultKind::kPartialWrite) {
      // Act out a crash mid-append: half the line lands, unsynced.
      write({line.data(), line.size() / 2});
    }
    faultinject::throw_injected(*kind, "record_log.append");
  }
  commit(line);
  ++size_;
}

void RecordLog::create() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("cannot create", path_);
  end_ = 0;
  size_ = 0;
  dirty_ = false;
  try {
    commit(frame(header_));
  } catch (...) {
    close();  // A torn header: the next append starts over.
    throw;
  }
  sync_parent_dir(path_);
}

void RecordLog::write(std::string_view bytes) {
  dirty_ = true;
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(end_ + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("cannot write", path_);
    done += static_cast<std::size_t>(n);
  }
}

void RecordLog::commit(std::string_view line) {
  write(line);
  if (::fdatasync(fd_) != 0) fail("cannot sync", path_);
  end_ += line.size();
  dirty_ = false;
}

void RecordLog::cut_tail() {
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0 ||
      ::fdatasync(fd_) != 0) {
    fail("cannot truncate", path_);
  }
  dirty_ = false;
}

}  // namespace gmd
