/// End-to-end orchestrator contract: a full run publishes every
/// artifact with no temp residue, resume skips verified stages, a stage
/// failure mid-pipeline leaves completed stages resumable, an
/// interrupted-then-resumed run is bit-identical to an uninterrupted
/// one, and a distributed sweep stage publishes the in-process bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/common/csv.hpp"
#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/shard.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/pipeline/manifest.hpp"
#include "gmd/pipeline/pipeline.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::pipeline {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t count_temp_files(const fs::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmp") {
      ++count;
    }
  }
  return count;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) /
            ("gmd_pipeline_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  /// Small but complete configuration: a tiny graph, a 12-point design
  /// space, and the cheapest model family.
  PipelineOptions small_options(const std::string& out_name) const {
    PipelineOptions options;
    options.out_dir = (root_ / out_name).string();
    options.graph_vertices = 64;
    options.edge_factor = 4;
    options.seed = 7;
    dse::GridAxes axes;
    axes.kinds = {dse::MemoryKind::kDram, dse::MemoryKind::kNvm};
    axes.cpu_freqs_mhz = {2000, 3000};
    axes.ctrl_freqs_mhz = {800};
    axes.channel_counts = {1, 2};
    axes.trcds = {9, 12};
    options.design_points = dse::enumerate_grid(axes);
    options.surrogate.models = {"linear"};
    options.num_threads = 2;
    return options;
  }

  /// The artifact files whose bytes define "the result" of a run.
  std::vector<std::string> key_artifacts(const PipelineResult& result) const {
    std::vector<std::string> files = {result.sweep_csv, result.table1_path,
                                      result.recommendations_path};
    for (const std::string& metric : dse::target_metric_names()) {
      const std::string model = (fs::path(result.table1_path).parent_path() /
                                 "models" / (metric + ".model"))
                                    .string();
      if (fs::exists(model)) files.push_back(model);
    }
    return files;
  }

  fs::path root_;
};

TEST_F(PipelineTest, FullRunPublishesEveryArtifactWithNoTempResidue) {
  const PipelineOptions options = small_options("full");
  const PipelineResult result = run_pipeline(options);

  ASSERT_EQ(result.stages.size(), stage_names().size());
  for (std::size_t i = 0; i < result.stages.size(); ++i) {
    EXPECT_EQ(result.stages[i].name, stage_names()[i]);
    EXPECT_FALSE(result.stages[i].skipped);
  }
  EXPECT_TRUE(fs::exists(result.trace_path));
  EXPECT_TRUE(fs::exists(result.store_path));
  EXPECT_TRUE(fs::exists(result.sweep_csv));
  EXPECT_TRUE(fs::exists(result.table1_path));
  EXPECT_TRUE(fs::exists(result.recommendations_path));
  EXPECT_EQ(result.health.ok, options.design_points.size());
  EXPECT_EQ(result.trained_metrics, dse::target_metric_names().size());
  EXPECT_EQ(result.skipped_metrics, 0u);
  for (const std::string& metric : dse::target_metric_names()) {
    EXPECT_TRUE(fs::exists(fs::path(options.out_dir) / "models" /
                           (metric + ".model")))
        << metric;
  }
  EXPECT_EQ(count_temp_files(options.out_dir), 0u);
  EXPECT_NE(result.summary().find("recommend=ran"), std::string::npos);
}

TEST_F(PipelineTest, ResumeSkipsEveryVerifiedStage) {
  PipelineOptions options = small_options("resume");
  const PipelineResult first = run_pipeline(options);
  std::vector<std::string> before;
  for (const std::string& file : key_artifacts(first)) {
    before.push_back(slurp(file));
  }

  options.resume = true;
  const PipelineResult second = run_pipeline(options);
  for (const StageStatus& stage : second.stages) {
    EXPECT_TRUE(stage.skipped) << stage.name;
  }
  // Health and model counts are rebuilt from the published artifacts.
  EXPECT_EQ(second.health.ok, first.health.ok);
  EXPECT_EQ(second.trained_metrics, first.trained_metrics);

  const std::vector<std::string> files = key_artifacts(first);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(slurp(files[i]), before[i])
        << files[i] << " changed across a no-op resume";
  }
}

TEST_F(PipelineTest, ChangedTrainConfigReRunsOnlyTrain) {
  PipelineOptions options = small_options("retrain");
  run_pipeline(options);

  options.resume = true;
  options.surrogate.seed = 99;  // Part of the train stage's identity.
  const PipelineResult second = run_pipeline(options);
  for (const StageStatus& stage : second.stages) {
    if (stage.name == "train") {
      EXPECT_FALSE(stage.skipped);
    } else {
      EXPECT_TRUE(stage.skipped) << stage.name;
    }
  }
}

TEST_F(PipelineTest, StageFailureLeavesCompletedStagesResumable) {
  // Reference: uninterrupted run in its own directory.
  const PipelineOptions reference_options = small_options("ref");
  const PipelineResult reference = run_pipeline(reference_options);

  // Faulted run: the sweep stage dies on first entry.
  PipelineOptions options = small_options("faulted");
  options.stage_hook = [](const std::string& name) {
    if (name == "sweep") throw Error(ErrorCode::kSimulation, "injected");
  };
  try {
    run_pipeline(options);
    FAIL() << "expected the injected sweep failure to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSimulation);
  }
  // cpusim and pack completed and were recorded before the crash.
  Manifest manifest((fs::path(options.out_dir) / "manifest.txt").string());
  EXPECT_EQ(manifest.load(), 2u);
  EXPECT_NE(manifest.find("cpusim"), nullptr);
  EXPECT_NE(manifest.find("pack"), nullptr);

  // Resume without the fault: the first two stages are skipped, the
  // rest run, and every artifact matches the uninterrupted reference.
  options.stage_hook = nullptr;
  options.resume = true;
  const PipelineResult resumed = run_pipeline(options);
  EXPECT_TRUE(resumed.stages[0].skipped);
  EXPECT_TRUE(resumed.stages[1].skipped);
  EXPECT_FALSE(resumed.stages[2].skipped);

  const std::vector<std::string> reference_files = key_artifacts(reference);
  const std::vector<std::string> resumed_files = key_artifacts(resumed);
  ASSERT_EQ(reference_files.size(), resumed_files.size());
  for (std::size_t i = 0; i < reference_files.size(); ++i) {
    EXPECT_EQ(slurp(resumed_files[i]), slurp(reference_files[i]))
        << resumed_files[i] << " diverged from the uninterrupted run";
  }
  EXPECT_EQ(count_temp_files(options.out_dir), 0u);
}

TEST_F(PipelineTest, SweepAbortMidwayThenResumeIsBitIdentical) {
  const PipelineOptions reference_options = small_options("ref2");
  const PipelineResult reference = run_pipeline(reference_options);

  // Abort the sweep after a few points have completed (and been
  // journaled).  Under kFailFast the injected error kills the sweep
  // stage; the journal keeps whatever finished.
  PipelineOptions options = small_options("aborted");
  std::atomic<int> attempts{0};
  options.sweep_fault_hook = [&attempts](std::size_t, std::uint32_t) {
    if (++attempts > 3) throw Error(ErrorCode::kSimulation, "injected");
  };
  EXPECT_THROW(run_pipeline(options), Error);

  // Resume: the journaled points are restored, the rest re-simulate,
  // and every downstream artifact is bit-identical to the reference.
  options.sweep_fault_hook = nullptr;
  std::atomic<int> resumed_points{0};
  options.sweep_fault_hook = [&resumed_points](std::size_t, std::uint32_t) {
    ++resumed_points;
  };
  options.resume = true;
  const PipelineResult resumed = run_pipeline(options);
  EXPECT_LT(resumed_points.load(),
            static_cast<int>(options.design_points.size()))
      << "resume re-simulated every point, so the journal restored nothing";
  EXPECT_EQ(resumed.health.ok, options.design_points.size());

  const std::vector<std::string> reference_files = key_artifacts(reference);
  const std::vector<std::string> resumed_files = key_artifacts(resumed);
  ASSERT_EQ(reference_files.size(), resumed_files.size());
  for (std::size_t i = 0; i < reference_files.size(); ++i) {
    EXPECT_EQ(slurp(resumed_files[i]), slurp(reference_files[i]))
        << resumed_files[i] << " diverged from the uninterrupted run";
  }
  EXPECT_EQ(count_temp_files(options.out_dir), 0u);
}

TEST_F(PipelineTest, RetrainingOnSweepCsvReproducesTable1) {
  // The premise of `gmd pipeline --report`: the train stage's options
  // over the published sweep.csv rebuild Table I byte for byte.
  PipelineOptions options = small_options("retrain_csv");
  options.surrogate.models = dse::SurrogateOptions{}.models;
  const PipelineResult result = run_pipeline(options);

  const std::vector<dse::SweepRow> rows =
      dse::table_to_sweep(CsvTable::load(result.sweep_csv));
  dse::SurrogateOptions surrogate = options.surrogate;
  surrogate.skip_failed_metrics = true;
  EXPECT_EQ(dse::SurrogateSuite::train(rows, surrogate).format_table1(),
            slurp(result.table1_path));
}

TEST_F(PipelineTest, DistributedSweepStageMatchesInProcess) {
  const PipelineResult in_process = run_pipeline(small_options("inproc"));
  PipelineOptions options = small_options("dist");
  options.sweep_processes = 2;
  const PipelineResult distributed = run_pipeline(options);
  EXPECT_EQ(distributed.health.ok, options.design_points.size());
  EXPECT_EQ(slurp(distributed.sweep_csv), slurp(in_process.sweep_csv));
}

TEST_F(PipelineTest, FreshDistributedRunIgnoresStaleShardJournals) {
  const PipelineResult reference = run_pipeline(small_options("fresh_ref"));

  // A previous run's shard journal under this run's exact identity,
  // covering every point, but with every row's power altered: adopting
  // it would publish the altered rows.
  PipelineOptions options = small_options("stale");
  options.sweep_processes = 2;
  const tracestore::TraceStoreReader store(reference.store_path);
  const dse::JournalKey key = dse::sweep_identity(
      dse::make_journal_key(options.design_points, store), options.sweep);
  const dse::RunDir run{(fs::path(options.out_dir) / "sweep-shards").string()};
  fs::create_directories(run.journals_dir());
  dse::SweepJournal journal(run.journal_path("stale"), key);
  std::vector<dse::SweepRow> rows =
      dse::run_sweep(options.design_points, store);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].metrics.avg_power_per_channel_w += 1.0;
    journal.record(i, rows[i]);
  }

  // Without resume the stage must recompute, not adopt the journal.
  const PipelineResult fresh = run_pipeline(options);
  EXPECT_EQ(slurp(fresh.sweep_csv), slurp(reference.sweep_csv));
}

TEST_F(PipelineTest, ExpiredCancelTokenAbortsWithTimeout) {
  PipelineOptions options = small_options("cancelled");
  Deadline expired(std::chrono::nanoseconds{0});
  options.cancel = &expired;
  try {
    run_pipeline(options);
    FAIL() << "expected Error(kTimeout)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout) << e.what();
  }
}

TEST_F(PipelineTest, EmptyOutDirIsRejected) {
  PipelineOptions options;
  options.out_dir = "";
  try {
    run_pipeline(options);
    FAIL() << "expected Error(kConfig)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

}  // namespace
}  // namespace gmd::pipeline
