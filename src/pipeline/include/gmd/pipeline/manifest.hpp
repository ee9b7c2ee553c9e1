#pragma once

/// \file manifest.hpp
/// Pipeline stage manifest: a small journal recording, for every
/// completed stage, the FNV-1a hash of its inputs and the (size,
/// checksum) of every artifact it produced.  --resume consults it to
/// skip stages whose inputs are unchanged AND whose artifacts still
/// verify on disk — a stage is re-run if either side drifted, so a
/// resumed pipeline can never serve stale or torn outputs.
///
/// The manifest is a gmd::RecordLog (record_log.hpp): a checksummed
/// line per record, appended and fdatasync'd once, with a torn tail cut
/// back to the last complete record.  Record payloads:
///
///   gmd-pipeline-manifest v1
///   stage <name> inputs=<16-hex> outputs=<n> [artifact <relpath> <bytes> <16-hex>]...
///
/// One record carries a stage with all of its artifacts, so a stage is
/// recorded whole or not at all; a re-run stage appends a new record
/// and the last record for a stage name wins.  Artifact paths are
/// relative to the manifest's directory, so a pipeline output directory
/// can be moved or copied wholesale and still resume.  A manifest that
/// does not parse is discarded with a typed warning (the worst case of
/// losing it is re-running stages, never wrong results).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gmd/common/record_log.hpp"

namespace gmd::pipeline {

/// One artifact a stage produced, as recorded at completion time.
struct ArtifactRecord {
  std::string relpath;  ///< Relative to the manifest's directory.
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a 64 of the file's bytes.
};

/// One completed stage.
struct StageRecord {
  std::string name;
  std::uint64_t inputs_hash = 0;  ///< Identity of everything the stage read.
  std::vector<ArtifactRecord> artifacts;
};

class Manifest {
 public:
  /// Binds to the manifest file at `path`; artifact paths resolve
  /// relative to its parent directory.  Nothing is read or written
  /// until load() / record_stage().
  explicit Manifest(std::string path);

  /// Loads an existing manifest and continues it: later stages append
  /// after the loaded ones.  A missing file yields an empty manifest; a
  /// torn tail is cut back to the last complete stage record with a
  /// GMD_LOG_WARN; an unreadable one, or one that does not parse, is
  /// discarded with a GMD_LOG_WARN (typed code included) and also
  /// yields empty — load() never throws for bad content, because the
  /// worst case of losing a manifest is re-running stages.  Returns the
  /// number of stages loaded.
  std::size_t load();

  /// True when stage `name` is recorded with the same `inputs_hash` and
  /// every recorded artifact still exists with matching size and
  /// checksum.  Reads (and hashes) the artifacts from disk.
  bool stage_valid(const std::string& name,
                   std::uint64_t inputs_hash) const;

  /// Records (or replaces) stage `name`: stats and hashes each artifact
  /// (paths relative to the manifest directory) and appends one stage
  /// record.  Unless load() ran first, the first record starts a fresh
  /// manifest file.  Throws Error(kIo) when an artifact is missing — a
  /// stage must not be recorded complete without its outputs.
  void record_stage(const std::string& name, std::uint64_t inputs_hash,
                    std::span<const std::string> artifact_relpaths);

  /// The record for `name`, or nullptr.
  const StageRecord* find(const std::string& name) const;

  const std::vector<StageRecord>& stages() const { return stages_; }
  const std::string& path() const { return log_.path(); }

  /// The directory artifact relpaths resolve against.
  std::string resolve(const std::string& relpath) const;

 private:
  std::string dir_;
  RecordLog log_;
  std::vector<StageRecord> stages_;
};

}  // namespace gmd::pipeline
