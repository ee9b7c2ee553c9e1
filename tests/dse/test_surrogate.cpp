#include "gmd/dse/surrogate.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

class SurrogateTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::UniformRandomParams params;
    params.num_vertices = 128;
    params.edge_factor = 8;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    const auto g = graph::CsrGraph::from_edge_list(list);
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    rows_ = new std::vector<SweepRow>(
        run_sweep(reduced_design_space(), sink.events()));
    suite_ = new SurrogateSuite(SurrogateSuite::train(*rows_));
  }
  static void TearDownTestSuite() {
    delete suite_;
    delete rows_;
    suite_ = nullptr;
    rows_ = nullptr;
  }
  static std::vector<SweepRow>* rows_;
  static SurrogateSuite* suite_;
};

std::vector<SweepRow>* SurrogateTest::rows_ = nullptr;
SurrogateSuite* SurrogateTest::suite_ = nullptr;

TEST_F(SurrogateTest, AllMetricModelPairsScored) {
  EXPECT_EQ(suite_->scores().size(),
            target_metric_names().size() * ml::table1_model_names().size());
  for (const auto& metric : target_metric_names()) {
    for (const auto& model : ml::table1_model_names()) {
      EXPECT_NO_THROW((void)suite_->score(metric, model));
    }
  }
}

TEST_F(SurrogateTest, ScoresAreReasonable) {
  // Every model family must beat the mean predictor on most metrics;
  // the best model per metric must be strongly predictive.
  for (const auto& metric : target_metric_names()) {
    const auto& best = suite_->best_model(metric);
    EXPECT_GT(best.r2, 0.85) << metric << " best=" << best.model;
    EXPECT_LT(best.mse, 0.05) << metric;
  }
}

TEST_F(SurrogateTest, ReadsWritesAreEasyForLinear) {
  // reads/writes per channel are a deterministic function of the
  // channel count: linear regression nails them (paper Table I).
  EXPECT_GT(suite_->score("reads_per_channel", "linear").r2, 0.999);
  EXPECT_GT(suite_->score("writes_per_channel", "linear").r2, 0.999);
}

TEST_F(SurrogateTest, SeriesCoverEveryMetric) {
  ASSERT_EQ(suite_->series().size(), target_metric_names().size());
  for (const auto& series : suite_->series()) {
    EXPECT_FALSE(series.truth.empty());
    for (const auto& model : ml::table1_model_names()) {
      ASSERT_TRUE(series.predictions.count(model)) << model;
      EXPECT_EQ(series.predictions.at(model).size(), series.truth.size());
    }
  }
}

TEST_F(SurrogateTest, TestSplitIs20Percent) {
  const std::size_t expected =
      static_cast<std::size_t>(static_cast<double>(rows_->size()) * 0.2 + 0.5);
  EXPECT_EQ(suite_->series().front().truth.size(), expected);
}

TEST_F(SurrogateTest, UnknownLookupThrows) {
  EXPECT_THROW((void)suite_->score("power_w", "nope"), Error);
  EXPECT_THROW((void)suite_->best_model("nope"), Error);
}

TEST_F(SurrogateTest, Table1FormatListsMetricsAndModels) {
  const std::string table = suite_->format_table1();
  for (const auto& metric : target_metric_names()) {
    EXPECT_NE(table.find(metric), std::string::npos) << metric;
  }
  EXPECT_NE(table.find("MSE"), std::string::npos);
  EXPECT_NE(table.find("R2"), std::string::npos);
  EXPECT_NE(table.find("svr"), std::string::npos);
}

TEST_F(SurrogateTest, DeployedModelPredictsPhysicalUnits) {
  const auto deployed =
      SurrogateSuite::deploy(*rows_, "reads_per_channel", "linear");
  // Prediction at a training point should be near its simulated value.
  const SweepRow& probe = (*rows_)[10];
  const double predicted = deployed.predict(probe.point);
  const double truth = probe.metrics.avg_reads_per_channel;
  EXPECT_NEAR(predicted, truth, std::abs(truth) * 0.05 + 1.0);
}

TEST_F(SurrogateTest, BatchPredictMatchesPerPoint) {
  // The batch entry point shares the scaler transforms and model with
  // the scalar one, so every value must match bit-for-bit.
  for (const std::string model : {"linear", "rf", "gb"}) {
    const auto deployed =
        SurrogateSuite::deploy(*rows_, "bandwidth_mbs", model);
    std::vector<DesignPoint> candidates;
    candidates.reserve(rows_->size());
    for (const auto& row : *rows_) candidates.push_back(row.point);
    const std::vector<double> batch = deployed.predict(candidates);
    ASSERT_EQ(batch.size(), candidates.size()) << model;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(batch[i], deployed.predict(candidates[i]))
          << model << " point " << i;
    }
  }
}

TEST_F(SurrogateTest, BatchPredictOnEmptySpanIsEmpty) {
  const auto deployed = SurrogateSuite::deploy(*rows_, "power_w", "rf");
  EXPECT_TRUE(deployed.predict(std::vector<DesignPoint>{}).empty());
}

TEST_F(SurrogateTest, DeployedModelFileRoundTripPredictsIdentically) {
  // A .gmdm artifact (model + both scalers) loads back into a deployment
  // that predicts bit-identically — the model registry's load path.
  const std::string path = testing::TempDir() + "/gmd_deployed_rt_" +
                           std::to_string(::getpid()) + ".gmdm";
  for (const std::string model : {"linear", "gb"}) {
    const auto deployed =
        SurrogateSuite::deploy(*rows_, "bandwidth_mbs", model);
    deployed.save_file(path);
    const auto restored = SurrogateSuite::DeployedModel::load_file(path);
    ASSERT_NE(restored.model, nullptr) << model;
    EXPECT_EQ(restored.model->name(), deployed.model->name());

    std::vector<DesignPoint> candidates;
    for (const auto& row : *rows_) candidates.push_back(row.point);
    EXPECT_EQ(restored.predict(candidates), deployed.predict(candidates))
        << model;
  }
  std::remove(path.c_str());
}

TEST_F(SurrogateTest, DeployedModelLoadRejectsMalformedInput) {
  std::stringstream not_ours("something-else entirely\n");
  EXPECT_THROW((void)SurrogateSuite::DeployedModel::load(not_ours), Error);
  SurrogateSuite::DeployedModel unfitted;
  std::stringstream out;
  EXPECT_THROW(unfitted.save(out), Error);
}

TEST_F(SurrogateTest, DeterministicTraining) {
  const SurrogateSuite again = SurrogateSuite::train(*rows_);
  for (std::size_t i = 0; i < again.scores().size(); ++i) {
    EXPECT_DOUBLE_EQ(again.scores()[i].mse, suite_->scores()[i].mse);
  }
}

TEST_F(SurrogateTest, CustomModelListRespected) {
  SurrogateOptions options;
  options.models = {"linear"};
  const SurrogateSuite small = SurrogateSuite::train(*rows_, options);
  EXPECT_EQ(small.scores().size(), target_metric_names().size());
}

TEST_F(SurrogateTest, SkipFailedMetricsDegradesInsteadOfAborting) {
  // Poison one metric across every row: its dataset build fails with
  // kInvalidData.  Degraded mode records the skip and keeps training
  // the other five metrics.
  std::vector<SweepRow> rows = *rows_;
  for (SweepRow& row : rows) {
    row.metrics.avg_power_per_channel_w = std::nan("");
  }
  SurrogateOptions options;
  options.models = {"linear"};
  options.skip_failed_metrics = true;
  log::set_sink([](log::Level, std::string_view) {});
  const SurrogateSuite suite = SurrogateSuite::train(rows, options);
  log::set_sink(nullptr);

  ASSERT_EQ(suite.skipped().size(), 1u);
  EXPECT_EQ(suite.skipped()[0].metric, "power_w");
  EXPECT_EQ(suite.skipped()[0].code, ErrorCode::kInvalidData);
  EXPECT_EQ(suite.scores().size(), target_metric_names().size() - 1);
  // Table I names the casualty instead of silently shrinking.
  const std::string table = suite.format_table1();
  EXPECT_NE(table.find("skipped: power_w"), std::string::npos) << table;

  // Without the flag the same failure is fatal.
  options.skip_failed_metrics = false;
  log::set_sink([](log::Level, std::string_view) {});
  try {
    SurrogateSuite::train(rows, options);
    log::set_sink(nullptr);
    FAIL() << "expected Error(kInvalidData)";
  } catch (const Error& e) {
    log::set_sink(nullptr);
    EXPECT_EQ(e.code(), ErrorCode::kInvalidData) << e.what();
  }
}

TEST_F(SurrogateTest, QuarantinedRowCountsSurfacePerMetric) {
  std::vector<SweepRow> rows = *rows_;
  rows[1].metrics.avg_latency_cycles = std::nan("");
  SurrogateOptions options;
  options.models = {"linear"};
  log::set_sink([](log::Level, std::string_view) {});
  const SurrogateSuite suite = SurrogateSuite::train(rows, options);
  log::set_sink(nullptr);
  ASSERT_EQ(suite.quarantined().count("latency_cycles"), 1u);
  EXPECT_EQ(suite.quarantined().at("latency_cycles"), 1u);
  EXPECT_EQ(suite.quarantined().count("power_w"), 0u);
  EXPECT_NE(suite.format_table1().find("quarantined: latency_cycles"),
            std::string::npos);
}

TEST_F(SurrogateTest, CancellationPropagatesEvenInDegradedMode) {
  // kCancelled means "stop the run", not "this metric is bad": it must
  // escape even with skip_failed_metrics on.
  Deadline cancelled;
  cancelled.cancel();
  SurrogateOptions options;
  options.models = {"linear"};
  options.skip_failed_metrics = true;
  options.deadline = &cancelled;
  try {
    SurrogateSuite::train(*rows_, options);
    FAIL() << "expected Error(kCancelled)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled) << e.what();
  }
}

TEST_F(SurrogateTest, ExpiredDeadlineStopsTreeEnsembleTraining) {
  // The deadline reaches inside rf/gb training (per tree / per boosting
  // stage), so even a single-metric run cannot overshoot its budget by
  // a whole model fit.
  Deadline expired(std::chrono::nanoseconds{0});
  SurrogateOptions options;
  options.models = {"rf"};
  options.deadline = &expired;
  try {
    SurrogateSuite::train(*rows_, options);
    FAIL() << "expected Error(kTimeout)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout) << e.what();
  }
}

TEST(Surrogate, TooFewRowsThrows) {
  std::vector<SweepRow> rows(3);
  EXPECT_THROW(SurrogateSuite::train(rows), Error);
}

}  // namespace
}  // namespace gmd::dse
