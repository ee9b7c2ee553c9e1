#include "gmd/common/atomic_file.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/hash.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace gmd {

namespace {

/// Best-effort fsync of `path` (and nothing else): crash safety against
/// power loss, not just process death.  Non-POSIX builds skip it — the
/// rename alone still guarantees all-or-nothing against process crashes.
void sync_path(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

void sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  sync_path(parent.empty() ? "." : parent.string());
#else
  (void)path;
#endif
}

AtomicFileWriter::AtomicFileWriter(std::string path,
                                   std::ios::openmode extra_mode)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp"),
      out_(temp_path_, std::ios::trunc | extra_mode) {
  GMD_FAULT_POINT("atomic_file.open");
  GMD_REQUIRE_AS(ErrorCode::kIo, out_.good(),
                 "cannot open '" << temp_path_ << "' for writing");
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  out_.close();
  std::error_code ignored;
  std::filesystem::remove(temp_path_, ignored);
}

void AtomicFileWriter::commit() {
  if (committed_) return;
  if (auto kind = faultinject::fire("atomic_file.commit")) {
    if (*kind == faultinject::FaultKind::kPartialWrite) {
      // Act out a torn write (disk full / crash mid-flush): half the
      // temp file survives, the commit rename never happens, and the
      // target artifact must remain untouched.
      out_.flush();
      out_.close();
      std::error_code ignored;
      const auto size = std::filesystem::file_size(temp_path_, ignored);
      if (!ignored && size > 0) {
        std::filesystem::resize_file(temp_path_, size / 2, ignored);
      }
    }
    faultinject::throw_injected(*kind, "atomic_file.commit");
  }
  out_.flush();
  GMD_REQUIRE_AS(ErrorCode::kIo, out_.good(),
                 "write of '" << temp_path_ << "' failed");
  out_.close();
  GMD_REQUIRE_AS(ErrorCode::kIo, !out_.fail(),
                 "close of '" << temp_path_ << "' failed");
  sync_path(temp_path_);
  std::error_code ec;
  std::filesystem::rename(temp_path_, path_, ec);
  GMD_REQUIRE_AS(ErrorCode::kIo, !ec,
                 "cannot rename '" << temp_path_ << "' over '" << path_
                                   << "': " << ec.message());
  sync_parent_dir(path_);
  committed_ = true;
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& fill,
                       std::ios::openmode extra_mode) {
  AtomicFileWriter writer(path, extra_mode);
  fill(writer.stream());
  writer.commit();
}

void atomic_write_text(const std::string& path, std::string_view content) {
  atomic_write_file(path, [&](std::ostream& os) {
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GMD_REQUIRE_AS(ErrorCode::kIo, in.good(),
                 "cannot read '" << path << "' for checksumming");
  Fnv1a hash;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    hash.mix_bytes(buffer, static_cast<std::size_t>(in.gcount()));
  }
  GMD_REQUIRE_AS(ErrorCode::kIo, in.eof(),
                 "read of '" << path << "' failed mid-checksum");
  return hash.state;
}

bool atomic_rename_claim(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (!ec) {
    sync_parent_dir(to);
    return true;
  }
  // The source vanishing between scan and rename is the normal lost-race
  // outcome: another claimant's rename consumed it first.  ENOENT with
  // the source still present means the DESTINATION is unreachable (its
  // directory is missing) — a setup bug, not a race, so it throws.
  if (ec == std::errc::no_such_file_or_directory &&
      !std::filesystem::exists(from)) {
    return false;
  }
  GMD_REQUIRE_AS(ErrorCode::kIo, false,
                 "cannot rename '" << from << "' to '" << to
                                   << "': " << ec.message());
  return false;  // unreachable
}

bool remove_file_if_exists(const std::string& path) noexcept {
  std::error_code ec;
  return std::filesystem::remove(path, ec) && !ec;
}

std::size_t remove_stale_temp_files(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return 0;
  std::size_t removed = 0;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".tmp") continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(it->path(), remove_ec)) ++removed;
  }
  return removed;
}

}  // namespace gmd
