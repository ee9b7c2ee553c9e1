#include "gmd/pipeline/manifest.hpp"

#include <filesystem>
#include <sstream>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/logging.hpp"

namespace gmd::pipeline {

namespace {

std::string encode(const StageRecord& stage) {
  std::ostringstream out;
  out << "stage " << stage.name << " inputs=" << to_hex16(stage.inputs_hash)
      << " outputs=" << stage.artifacts.size();
  for (const ArtifactRecord& artifact : stage.artifacts) {
    out << " artifact " << artifact.relpath << ' ' << artifact.bytes << ' '
        << to_hex16(artifact.checksum);
  }
  return out.str();
}

StageRecord decode(const std::string& record, const std::string& path) {
  const auto require = [&](bool ok) {
    GMD_REQUIRE_AS(ErrorCode::kIo, ok,
                   "corrupt pipeline manifest '"
                       << path << "': bad stage record '" << record << "'");
  };
  const auto hex = [&](const std::string& token) {
    const auto value = parse_hex16(token);
    require(value.has_value());
    return *value;
  };
  std::istringstream is(record);
  StageRecord stage;
  std::string tag, inputs, outputs;
  is >> tag >> stage.name >> inputs >> outputs;
  require(!is.fail() && tag == "stage" && inputs.starts_with("inputs=") &&
          outputs.starts_with("outputs="));
  stage.inputs_hash = hex(inputs.substr(7));
  std::size_t count = 0;
  require(static_cast<bool>(std::istringstream(outputs.substr(8)) >> count));
  stage.artifacts.resize(count);
  for (ArtifactRecord& artifact : stage.artifacts) {
    std::string checksum;
    is >> tag >> artifact.relpath >> artifact.bytes >> checksum;
    require(!is.fail() && tag == "artifact");
    artifact.checksum = hex(checksum);
  }
  return stage;
}

/// Replaces the stage of the same name, or adds it: the last record
/// for a stage name wins.
void upsert(std::vector<StageRecord>& stages, StageRecord stage) {
  for (StageRecord& existing : stages) {
    if (existing.name == stage.name) {
      existing = std::move(stage);
      return;
    }
  }
  stages.push_back(std::move(stage));
}

}  // namespace

Manifest::Manifest(std::string path)
    : log_(std::move(path), "gmd-pipeline-manifest v1") {
  const std::filesystem::path parent =
      std::filesystem::path(log_.path()).parent_path();
  dir_ = parent.empty() ? "." : parent.string();
}

std::string Manifest::resolve(const std::string& relpath) const {
  return (std::filesystem::path(dir_) / relpath).string();
}

std::size_t Manifest::load() {
  stages_.clear();
  // Parse into a local list and publish only on success: a corrupt
  // manifest is worth a warning and a from-scratch run, never an abort
  // or a half-loaded state.  A torn tail is not corruption: open()
  // cuts it back to the last complete stage record.
  try {
    std::vector<StageRecord> loaded;
    log_.open([&](const std::string& record) {
      upsert(loaded, decode(record, log_.path()));
    });
    stages_ = std::move(loaded);
  } catch (const Error& e) {
    GMD_LOG_WARN << "pipeline resume: ignoring unusable manifest '" << path()
                 << "' [" << to_string(e.code()) << "]: " << e.what()
                 << "; all stages will re-run";
    stages_.clear();
  }
  return stages_.size();
}

const StageRecord* Manifest::find(const std::string& name) const {
  for (const StageRecord& stage : stages_) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

bool Manifest::stage_valid(const std::string& name,
                           std::uint64_t inputs_hash) const {
  const StageRecord* stage = find(name);
  if (stage == nullptr || stage->inputs_hash != inputs_hash) return false;
  for (const ArtifactRecord& artifact : stage->artifacts) {
    const std::string full = resolve(artifact.relpath);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(full, ec);
    if (ec || size != artifact.bytes) return false;
    try {
      if (fnv1a_file(full) != artifact.checksum) return false;
    } catch (const Error&) {
      return false;
    }
  }
  return true;
}

void Manifest::record_stage(const std::string& name,
                            std::uint64_t inputs_hash,
                            std::span<const std::string> artifact_relpaths) {
  StageRecord stage;
  stage.name = name;
  stage.inputs_hash = inputs_hash;
  for (const std::string& relpath : artifact_relpaths) {
    ArtifactRecord artifact;
    artifact.relpath = relpath;
    const std::string full = resolve(relpath);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(full, ec);
    GMD_REQUIRE_AS(ErrorCode::kIo, !ec,
                   "stage '" << name << "' recorded missing artifact '"
                             << full << "'");
    artifact.bytes = static_cast<std::uint64_t>(size);
    artifact.checksum = fnv1a_file(full);
    stage.artifacts.push_back(std::move(artifact));
  }

  log_.append(encode(stage));
  upsert(stages_, std::move(stage));
}

}  // namespace gmd::pipeline
