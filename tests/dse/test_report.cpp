#include "gmd/dse/report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/workload.hpp"

namespace gmd::dse {
namespace {

class ReportTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadSpec spec;
    spec.graph_vertices = 128;
    spec.edge_factor = 8;
    rows_ = new std::vector<SweepRow>(
        run_sweep(reduced_design_space(), generate_workload_trace(spec)));
    suite_ = new SurrogateSuite(SurrogateSuite::train(*rows_));
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
    delete rows_;
    rows_ = nullptr;
  }
  static std::string render(const ReportOptions& options = {}) {
    return markdown_report(*rows_, *suite_, options);
  }
  static std::vector<SweepRow>* rows_;
  static SurrogateSuite* suite_;
};

std::vector<SweepRow>* ReportTest::rows_ = nullptr;
SurrogateSuite* ReportTest::suite_ = nullptr;

TEST_F(ReportTest, ContainsAllSections) {
  const std::string report = render();
  EXPECT_NE(report.find("# Memory co-design study"), std::string::npos);
  EXPECT_NE(report.find("## Memory performance summary"), std::string::npos);
  EXPECT_NE(report.find("## Surrogate model scores"), std::string::npos);
  EXPECT_NE(report.find("## Recommendations"), std::string::npos);
  EXPECT_NE(report.find("Pareto front"), std::string::npos);
  EXPECT_NE(report.find("## Parameter sensitivity"), std::string::npos);
}

TEST_F(ReportTest, OptionsDisableSections) {
  ReportOptions options;
  options.title = "Custom title";
  options.include_pareto = false;
  options.include_model_scores = false;
  const std::string report = render(options);
  EXPECT_NE(report.find("# Custom title"), std::string::npos);
  EXPECT_EQ(report.find("Pareto"), std::string::npos);
  EXPECT_EQ(report.find("Table I analogue"), std::string::npos);
  EXPECT_NE(report.find("## Recommendations"), std::string::npos);
}

TEST_F(ReportTest, MetricTableHasOneRowPerCell) {
  const std::string report = render();
  // 4 cpu x 4 ctrl x 2 channels = 32 cells.
  std::size_t rows = 0;
  std::size_t pos = 0;
  while ((pos = report.find("\n| 2", pos)) != std::string::npos) {
    ++rows;
    ++pos;
  }
  // Rows starting with cpu frequencies 2000 (8 cells).
  EXPECT_EQ(rows, 8u);
}

TEST_F(ReportTest, MentionsEveryMetricAndModel) {
  const std::string report = render();
  for (const auto& metric : target_metric_names()) {
    EXPECT_NE(report.find(metric), std::string::npos) << metric;
  }
  EXPECT_NE(report.find("| svr |"), std::string::npos);
  EXPECT_NE(report.find("**yes**"), std::string::npos);
}

TEST_F(ReportTest, SavesToFile) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("gmd_report_test_" + std::to_string(::getpid()) + ".md");
  save_markdown_report(path.string(), *rows_, *suite_);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
  std::filesystem::remove(path);
}

TEST(Report, EmptyStudyRejected) {
  const SurrogateSuite suite;
  std::ostringstream os;
  EXPECT_THROW(write_markdown_report(os, {}, suite), Error);
}

}  // namespace
}  // namespace gmd::dse
