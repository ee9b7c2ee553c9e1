#include "gmd/ml/gbt.hpp"

#include <algorithm>
#include <istream>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/common/thread_pool.hpp"

namespace gmd::ml {

GradientBoosting::GradientBoosting(const GbtParams& params)
    : params_(params) {
  GMD_REQUIRE(params.num_stages >= 1, "boosting needs at least one stage");
  GMD_REQUIRE(params.learning_rate > 0.0 && params.learning_rate <= 1.0,
              "learning_rate must be in (0, 1]");
  GMD_REQUIRE(params.subsample > 0.0 && params.subsample <= 1.0,
              "subsample must be in (0, 1]");
}

void GradientBoosting::fit(const Matrix& x, std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  const std::size_t n = x.rows();

  f0_ = 0.0;
  for (const double v : y) f0_ += v;
  f0_ /= static_cast<double>(n);

  std::vector<double> prediction(n, f0_);
  std::vector<double> residual(n);
  stages_.clear();
  stages_.reserve(params_.num_stages);

  Rng rng(params_.seed);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});

  // One presort shared across all boosting stages (the targets change
  // every stage, the feature order never does), plus a worker pool for
  // per-feature split search once nodes are large enough to benefit.
  TrainingWorkspace base;
  std::unique_ptr<ThreadPool> pool;
  if (!params_.reference_mode) {
    base = TrainingWorkspace::build(x);
    if (params_.num_threads != 1 && n >= params_.parallel_min_rows) {
      pool = std::make_unique<ThreadPool>(params_.num_threads);
    }
  }

  std::vector<double> stage_update;
  for (std::size_t stage = 0; stage < params_.num_stages; ++stage) {
    // One boosting stage is the cancellation granularity.
    if (params_.deadline != nullptr) params_.deadline->check_now();
    for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - prediction[i];

    TreeParams tree_params;
    tree_params.max_depth = params_.max_depth;
    tree_params.min_samples_leaf = params_.min_samples_leaf;
    tree_params.seed = rng();
    tree_params.reference_mode = params_.reference_mode;
    tree_params.pool = pool.get();
    tree_params.parallel_min_rows = params_.parallel_min_rows;
    DecisionTree tree(tree_params);

    if (params_.subsample < 1.0) {
      rng.shuffle(all);
      const auto take = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(n) *
                                      params_.subsample));
      const std::span<const std::size_t> sample(all.data(), take);
      const Matrix xs = x.gather_rows(sample);
      std::vector<double> rs(take);
      for (std::size_t i = 0; i < take; ++i) rs[i] = residual[sample[i]];
      if (params_.reference_mode) {
        tree.fit(xs, rs);
      } else {
        const TrainingWorkspace ws = base.for_sample(sample);
        tree.fit_with_workspace(ws, xs, rs);
      }
    } else if (params_.reference_mode) {
      tree.fit(x, residual);
    } else {
      tree.fit_with_workspace(base, x, residual);
    }

    if (params_.reference_mode) {
      for (std::size_t i = 0; i < n; ++i) {
        prediction[i] += params_.learning_rate * tree.predict_one(x.row(i));
      }
    } else {
      // Batch traversal; each update is the same lr * leaf value the
      // per-row loop adds.
      stage_update = tree.predict(x);
      for (std::size_t i = 0; i < n; ++i) {
        prediction[i] += params_.learning_rate * stage_update[i];
      }
    }
    stages_.push_back(std::move(tree));
  }
  fitted_ = true;
}

double GradientBoosting::predict_one(std::span<const double> x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  double out = f0_;
  for (const DecisionTree& tree : stages_) {
    out += params_.learning_rate * tree.predict_one(x);
  }
  return out;
}

std::vector<double> GradientBoosting::predict(const Matrix& x) const {
  GMD_REQUIRE(fitted_, "predict before fit");
  for (const DecisionTree& tree : stages_) {
    for (const auto& node : tree.nodes_) {
      GMD_REQUIRE(node.feature == DecisionTree::Node::kLeaf ||
                      node.feature < x.cols(),
                  "feature count mismatch");
    }
  }
  // Row-group-major traversal with every stage's compact plan inner:
  // the shallow stage trees all stay cache-resident while each row
  // group's accumulators sit in registers.  Per row the accumulation
  // is the same stage-order f0 + lr * leaf sum predict_one computes,
  // so the values are bit-identical.
  std::vector<DecisionTree::InferencePlan> plans;
  plans.reserve(stages_.size());
  for (const DecisionTree& tree : stages_) plans.push_back(tree.make_plan());
  const std::size_t n = x.rows();
  std::vector<double> out(n, f0_);
  DecisionTree::accumulate_block(plans, params_.learning_rate, x, 0, n,
                                 out.data());
  return out;
}

std::unique_ptr<Regressor> GradientBoosting::clone() const {
  return std::make_unique<GradientBoosting>(*this);
}

void GradientBoosting::write(std::ostream& os) const {
  GMD_REQUIRE(fitted_, "cannot serialize an unfitted model");
  os.precision(17);
  os << "gbt " << params_.learning_rate << " " << f0_ << " "
     << stages_.size() << "\n";
  for (const DecisionTree& tree : stages_) tree.write(os);
}

GradientBoosting GradientBoosting::read(std::istream& is) {
  std::string tag;
  double learning_rate = 0.0;
  double f0 = 0.0;
  std::size_t count = 0;
  is >> tag >> learning_rate >> f0 >> count;
  GMD_REQUIRE(is.good() && tag == "gbt" && count >= 1,
              "not a serialized gradient-boosting model");
  GbtParams params;
  params.learning_rate = learning_rate;
  params.num_stages = count;
  GradientBoosting model(params);
  model.f0_ = f0;
  model.stages_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    model.stages_.push_back(DecisionTree::read(is));
  }
  model.fitted_ = true;
  return model;
}

}  // namespace gmd::ml
