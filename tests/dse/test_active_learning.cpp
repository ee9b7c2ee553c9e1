#include <gtest/gtest.h>

#include <set>

#include "gmd/common/error.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

/// The §V label-efficiency study through the explorer loop: a pool of
/// the reduced grid's points is simulated only as the loop acquires
/// them, and every fit is scored on the pre-simulated holdout.
class ActiveLearningTest : public testing::Test {
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
    trace_ = new std::vector<cpusim::MemoryEvent>(sink.events());
    // 75/25 pool/holdout split by index stride.
    const std::vector<DesignPoint> points = reduced_design_space();
    std::vector<DesignPoint> pool, holdout;
    for (std::size_t i = 0; i < points.size(); ++i) {
      (i % 4 == 0 ? holdout : pool).push_back(points[i]);
    }
    pool_ = new LazySpace(LazySpace::of(std::move(pool)));
    holdout_ = new std::vector<SweepRow>(run_sweep(holdout, *trace_));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete pool_;
    delete holdout_;
    trace_ = nullptr;
    pool_ = nullptr;
    holdout_ = nullptr;
  }

  /// Active learning's defaults: 10 random seed labels, a 60-label
  /// budget, one label per round, max-variance acquisition.
  static ExplorerOptions curve_options(const std::string& metric) {
    ExplorerOptions options;
    options.metric = metric;
    options.acquisition = Acquisition::kMaxVariance;
    options.initial_samples = 10;
    options.simulation_budget = 60;
    options.batch_size = 1;
    options.rf_trees = 50;
    return options;
  }

  static LearningCurve run(const ExplorerOptions& options) {
    return run_learning_curve(*pool_, *trace_, *holdout_, options);
  }

  static std::vector<cpusim::MemoryEvent>* trace_;
  static LazySpace* pool_;
  static std::vector<SweepRow>* holdout_;
};

std::vector<cpusim::MemoryEvent>* ActiveLearningTest::trace_ = nullptr;
LazySpace* ActiveLearningTest::pool_ = nullptr;
std::vector<SweepRow>* ActiveLearningTest::holdout_ = nullptr;

TEST_F(ActiveLearningTest, CurveTracksBudget) {
  ExplorerOptions options = curve_options("power_w");
  options.initial_samples = 8;
  options.simulation_budget = 24;
  options.batch_size = 4;
  const auto result = run(options);
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.front().labels_used, 8u);
  EXPECT_EQ(result.curve.back().labels_used, 24u);
  EXPECT_EQ(result.curve.size(), 5u);  // 8, 12, 16, 20, 24
}

TEST_F(ActiveLearningTest, AcquisitionOrderHasNoDuplicates) {
  ExplorerOptions options = curve_options("latency_cycles");
  options.simulation_budget = 30;
  const auto result = run(options);
  std::set<std::size_t> seen(result.acquisition_order.begin(),
                             result.acquisition_order.end());
  EXPECT_EQ(seen.size(), result.acquisition_order.size());
  for (const std::size_t i : result.acquisition_order) {
    EXPECT_LT(i, pool_->size());
  }
}

TEST_F(ActiveLearningTest, AccuracyImprovesWithLabels) {
  ExplorerOptions options = curve_options("power_w");
  options.initial_samples = 6;
  options.simulation_budget = 48;
  options.batch_size = 6;
  const auto result = run(options);
  EXPECT_GT(result.curve.back().r2_on_holdout,
            result.curve.front().r2_on_holdout);
  EXPECT_GT(result.curve.back().r2_on_holdout, 0.7);
}

TEST_F(ActiveLearningTest, ActiveBeatsOrMatchesRandomAtBudgetEnd) {
  ExplorerOptions options = curve_options("total_latency_cycles");
  options.initial_samples = 6;
  options.simulation_budget = 40;
  options.batch_size = 2;
  options.seed = 3;
  const auto active = run(options);
  options.acquisition = Acquisition::kRandom;
  const auto random = run(options);
  // Active learning should not be much worse than random, and usually
  // better; allow slack for the small pool.
  EXPECT_GT(active.curve.back().r2_on_holdout,
            random.curve.back().r2_on_holdout - 0.1);
}

TEST_F(ActiveLearningTest, RandomBaselineDeterministicPerSeed) {
  ExplorerOptions options = curve_options("power_w");
  options.simulation_budget = 20;
  options.acquisition = Acquisition::kRandom;
  const auto a = run(options);
  const auto b = run(options);
  EXPECT_EQ(a.acquisition_order, b.acquisition_order);
}

TEST_F(ActiveLearningTest, BudgetClampedToPoolSize) {
  ExplorerOptions options = curve_options("power_w");
  options.initial_samples = 4;
  options.simulation_budget = 100000;
  options.batch_size = 16;
  const auto result = run(options);
  EXPECT_LE(result.curve.back().labels_used, pool_->size());
  EXPECT_EQ(result.acquisition_order.size(),
            result.curve.back().labels_used);
}

TEST_F(ActiveLearningTest, ForestModelLearnsAndIsThreadInvariant) {
  ExplorerOptions options = curve_options("power_w");
  options.model = "rf";
  options.initial_samples = 10;
  options.simulation_budget = 30;
  options.batch_size = 4;
  const auto serial = run(options);
  ASSERT_FALSE(serial.curve.empty());
  EXPECT_EQ(serial.curve.back().labels_used, 30u);
  EXPECT_GT(serial.curve.back().r2_on_holdout, 0.3);

  // Forest training and the streamed acquisition are bit-identical at
  // any thread count, so the acquisition trajectory must be too.
  options.num_threads = 3;
  const auto threaded = run(options);
  EXPECT_EQ(threaded.acquisition_order, serial.acquisition_order);
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(threaded.curve[i].r2_on_holdout, serial.curve[i].r2_on_holdout);
  }
}

TEST_F(ActiveLearningTest, BadOptionsThrow) {
  ExplorerOptions options = curve_options("power_w");
  options.initial_samples = 1;
  EXPECT_THROW(run(options), Error);
  options = curve_options("power_w");
  options.simulation_budget = 2;
  options.initial_samples = 10;
  EXPECT_THROW(run(options), Error);
  EXPECT_THROW(run_learning_curve(LazySpace::of({}), *trace_, *holdout_,
                                  curve_options("power_w")),
               Error);
  options = curve_options("power_w");
  options.model = "svm";
  EXPECT_THROW(run(options), Error);
}

}  // namespace
}  // namespace gmd::dse
