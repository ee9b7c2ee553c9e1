/// Manifest contract: stage records round-trip through disk, resume
/// validity checks artifact size AND content, a torn tail costs exactly
/// the stage records it cut, and a manifest that does not parse is
/// discarded with a typed warning instead of poisoning a resume.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/common/record_log.hpp"
#include "gmd/pipeline/manifest.hpp"

namespace gmd::pipeline {
namespace {

namespace fs = std::filesystem;

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("gmd_manifest_" + std::to_string(::getpid()) + "_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_path_ = (dir_ / "manifest.txt").string();
  }

  void TearDown() override {
    log::set_sink(nullptr);
    fs::remove_all(dir_);
  }

  void put(const std::string& relpath, const std::string& content) {
    std::ofstream out(dir_ / relpath, std::ios::binary | std::ios::trunc);
    out << content;
  }

  std::string slurp() const {
    std::ifstream in(manifest_path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  /// Records three stages; returns the manifest bytes.
  std::string record_three_stages() {
    put("a.txt", "alpha");
    put("b.txt", "bravo");
    Manifest manifest(manifest_path_);
    const std::vector<std::string> a = {"a.txt"};
    const std::vector<std::string> ab = {"a.txt", "b.txt"};
    manifest.record_stage("cpusim", 1, a);
    manifest.record_stage("pack", 2, ab);
    manifest.record_stage("sweep", 3, a);
    return slurp();
  }

  /// Byte offset where each line ends (one past its newline).
  static std::vector<std::size_t> line_ends(const std::string& bytes) {
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] == '\n') ends.push_back(i + 1);
    }
    return ends;
  }

  fs::path dir_;
  std::string manifest_path_;
};

TEST_F(ManifestTest, RecordAndReloadRoundTrips) {
  put("a.txt", "alpha");
  put("b.bin", "bravo-bytes");
  {
    Manifest manifest(manifest_path_);
    const std::vector<std::string> artifacts = {"a.txt", "b.bin"};
    manifest.record_stage("cpusim", 0xDEADBEEFu, artifacts);
    const std::vector<std::string> one = {"a.txt"};
    manifest.record_stage("pack", 42, one);
  }
  Manifest reloaded(manifest_path_);
  EXPECT_EQ(reloaded.load(), 2u);
  ASSERT_NE(reloaded.find("cpusim"), nullptr);
  EXPECT_EQ(reloaded.find("cpusim")->inputs_hash, 0xDEADBEEFu);
  ASSERT_EQ(reloaded.find("cpusim")->artifacts.size(), 2u);
  EXPECT_EQ(reloaded.find("cpusim")->artifacts[0].relpath, "a.txt");
  EXPECT_EQ(reloaded.find("cpusim")->artifacts[0].bytes, 5u);
  EXPECT_TRUE(reloaded.stage_valid("cpusim", 0xDEADBEEFu));
  EXPECT_TRUE(reloaded.stage_valid("pack", 42));
  EXPECT_EQ(reloaded.find("missing"), nullptr);
  EXPECT_FALSE(reloaded.stage_valid("missing", 0));
}

TEST_F(ManifestTest, RecordReplacesExistingStage) {
  put("a.txt", "one");
  Manifest manifest(manifest_path_);
  const std::vector<std::string> artifacts = {"a.txt"};
  manifest.record_stage("sweep", 1, artifacts);
  manifest.record_stage("sweep", 2, artifacts);
  EXPECT_EQ(manifest.stages().size(), 1u);
  EXPECT_EQ(manifest.find("sweep")->inputs_hash, 2u);

  Manifest reloaded(manifest_path_);
  EXPECT_EQ(reloaded.load(), 1u);
  EXPECT_TRUE(reloaded.stage_valid("sweep", 2));
  EXPECT_FALSE(reloaded.stage_valid("sweep", 1));
}

TEST_F(ManifestTest, StageValidRejectsChangedInputsHash) {
  put("a.txt", "alpha");
  Manifest manifest(manifest_path_);
  const std::vector<std::string> artifacts = {"a.txt"};
  manifest.record_stage("train", 7, artifacts);
  EXPECT_TRUE(manifest.stage_valid("train", 7));
  EXPECT_FALSE(manifest.stage_valid("train", 8))
      << "changed inputs must force a re-run";
}

TEST_F(ManifestTest, StageValidRejectsTamperedArtifact) {
  put("a.txt", "alpha");
  Manifest manifest(manifest_path_);
  const std::vector<std::string> artifacts = {"a.txt"};
  manifest.record_stage("train", 7, artifacts);

  // Same size, different content: only the checksum can catch it.
  put("a.txt", "alphx");
  EXPECT_FALSE(manifest.stage_valid("train", 7));

  // Deleted outright.
  fs::remove(dir_ / "a.txt");
  EXPECT_FALSE(manifest.stage_valid("train", 7));
}

TEST_F(ManifestTest, RecordStageThrowsOnMissingArtifact) {
  Manifest manifest(manifest_path_);
  const std::vector<std::string> artifacts = {"never-written.txt"};
  try {
    manifest.record_stage("sweep", 1, artifacts);
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo) << e.what();
  }
}

TEST_F(ManifestTest, MissingManifestLoadsEmptyWithoutWarning) {
  std::size_t warnings = 0;
  log::set_sink([&warnings](log::Level level, std::string_view) {
    if (level == log::Level::kWarn) ++warnings;
  });
  Manifest manifest(manifest_path_);
  EXPECT_EQ(manifest.load(), 0u);
  EXPECT_EQ(warnings, 0u) << "a first run is not a corruption event";
}

TEST_F(ManifestTest, CorruptManifestLoadsEmptyWithTypedWarning) {
  // Checksum-valid records the manifest cannot use: a foreign header, a
  // torn hex token, a non-numeric artifact size.  Each discards the
  // whole manifest with a typed warning.
  struct Case {
    std::string header;
    std::string stage;
    std::string code;
  };
  const std::vector<Case> bad_contents = {
      {"gmd-pipeline-manifest v99", "stage cpusim inputs=0 outputs=0",
       "[config]"},
      {"gmd-pipeline-manifest v1", "stage cpusim inputs=zzzz outputs=1",
       "[io]"},
      {"gmd-pipeline-manifest v1",
       "stage cpusim inputs=ab outputs=1 artifact a.txt not-a-number ffff",
       "[io]"},
  };
  for (const auto& content : bad_contents) {
    fs::remove(manifest_path_);
    RecordLog(manifest_path_, content.header).append(content.stage);
    std::vector<std::string> warnings;
    log::set_sink([&warnings](log::Level level, std::string_view msg) {
      if (level == log::Level::kWarn) warnings.emplace_back(msg);
    });
    Manifest manifest(manifest_path_);
    EXPECT_EQ(manifest.load(), 0u) << content.stage;
    EXPECT_TRUE(manifest.stages().empty()) << content.stage;
    ASSERT_EQ(warnings.size(), 1u) << content.stage;
    EXPECT_NE(warnings[0].find("unusable manifest"), std::string::npos)
        << warnings[0];
    EXPECT_NE(warnings[0].find(content.code), std::string::npos)
        << warnings[0];
    log::set_sink(nullptr);
  }

  // Bytes that are not a record log at all: no valid header, so the
  // torn-tail rule leaves an empty manifest, also with a typed warning.
  atomic_write_text(manifest_path_, "not a manifest at all\n");
  std::vector<std::string> warnings;
  log::set_sink([&warnings](log::Level level, std::string_view msg) {
    if (level == log::Level::kWarn) warnings.emplace_back(msg);
  });
  Manifest manifest(manifest_path_);
  EXPECT_EQ(manifest.load(), 0u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("record 0 fails its checksum"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[0].find("[io]"), std::string::npos) << warnings[0];
}

TEST_F(ManifestTest, TruncatedManifestLoadsEmptyNotPartial) {
  const std::string full = record_three_stages();
  const auto ends = line_ends(full);
  // Cut inside a stage record: only the stages before it load, and no
  // stage ever loads with part of its artifact list.
  for (const std::size_t cut : {ends[1] - 10, ends[2] - 10}) {
    atomic_write_text(manifest_path_, full.substr(0, cut));
    std::size_t warnings = 0;
    log::set_sink([&warnings](log::Level level, std::string_view) {
      if (level == log::Level::kWarn) ++warnings;
    });
    Manifest manifest(manifest_path_);
    const std::size_t loaded = manifest.load();
    log::set_sink(nullptr);
    EXPECT_EQ(warnings, 1u);
    EXPECT_EQ(loaded, cut < ends[1] ? 0u : 1u);
    for (const StageRecord& stage : manifest.stages()) {
      EXPECT_TRUE(manifest.stage_valid(stage.name, stage.inputs_hash));
    }
  }
}

TEST_F(ManifestTest, EveryCutRestoresTheCompleteStagesBeforeIt) {
  // Crash semantics pinned at every byte: the complete stage records
  // before the cut load whole, and re-recording the lost stages yields
  // the uninterrupted manifest byte for byte.
  const std::string full = record_three_stages();
  const auto ends = line_ends(full);
  ASSERT_EQ(ends.size(), 4u);
  const std::vector<std::string> names = {"cpusim", "pack", "sweep"};
  log::set_sink([](log::Level, std::string_view) {});
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    atomic_write_text(manifest_path_, full.substr(0, cut));
    std::size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= cut) {
      ++complete;
    }
    Manifest manifest(manifest_path_);
    ASSERT_EQ(manifest.load(), complete);
    for (std::size_t s = 0; s < names.size(); ++s) {
      EXPECT_EQ(manifest.stage_valid(names[s], s + 1), s < complete);
    }
    const std::vector<std::string> a = {"a.txt"};
    const std::vector<std::string> ab = {"a.txt", "b.txt"};
    if (complete < 1) manifest.record_stage("cpusim", 1, a);
    if (complete < 2) manifest.record_stage("pack", 2, ab);
    if (complete < 3) manifest.record_stage("sweep", 3, a);
    EXPECT_EQ(slurp(), full);
  }
  log::set_sink(nullptr);
}

TEST_F(ManifestTest, BitFlipInStageKRestoresStagesBeforeK) {
  const std::string full = record_three_stages();
  const auto ends = line_ends(full);
  log::set_sink([](log::Level, std::string_view) {});
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    SCOPED_TRACE(testing::Message() << "flip at byte " << pos);
    std::size_t k = 0;  // the record holding byte `pos`; 0 = header
    while (ends[k] <= pos) ++k;
    std::string rotten = full;
    rotten[pos] = static_cast<char>(rotten[pos] ^ (1 << (pos % 8)));
    atomic_write_text(manifest_path_, rotten);
    Manifest manifest(manifest_path_);
    EXPECT_EQ(manifest.load(), k == 0 ? 0 : k - 1);
  }
  log::set_sink(nullptr);
}

TEST_F(ManifestTest, ReloadedManifestAppendsAndLastRecordWins) {
  const std::string full = record_three_stages();
  Manifest manifest(manifest_path_);
  ASSERT_EQ(manifest.load(), 3u);
  const std::vector<std::string> b = {"b.txt"};
  manifest.record_stage("pack", 9, b);
  EXPECT_EQ(slurp().compare(0, full.size(), full), 0)
      << "a reloaded manifest appends instead of rewriting";

  Manifest reloaded(manifest_path_);
  ASSERT_EQ(reloaded.load(), 3u);
  EXPECT_TRUE(reloaded.stage_valid("pack", 9));
  EXPECT_FALSE(reloaded.stage_valid("pack", 2));
  ASSERT_EQ(reloaded.find("pack")->artifacts.size(), 1u);
  EXPECT_EQ(reloaded.stages()[1].name, "pack");
}

TEST_F(ManifestTest, ResolveJoinsAgainstManifestDirectory) {
  Manifest manifest(manifest_path_);
  EXPECT_EQ(manifest.resolve("a.txt"), (dir_ / "a.txt").string());
}

}  // namespace
}  // namespace gmd::pipeline
