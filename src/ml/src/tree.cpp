#include "gmd/ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "gmd/common/error.hpp"
#include "gmd/common/thread_pool.hpp"

namespace gmd::ml {

DecisionTree::DecisionTree(const TreeParams& params) : params_(params) {
  GMD_REQUIRE(params.max_depth >= 1, "max_depth must be >= 1");
  GMD_REQUIRE(params.min_samples_split >= 2, "min_samples_split must be >= 2");
  GMD_REQUIRE(params.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
}

namespace {

/// Mean of y over indices[begin, end).
double subset_mean(std::span<const double> y,
                   std::span<const std::size_t> indices, std::size_t begin,
                   std::size_t end) {
  double sum = 0.0;
  double count = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += y[indices[i]];
    count += 1.0;
  }
  return count > 0.0 ? sum / count : 0.0;
}

}  // namespace

namespace detail {

/// Grows one tree over a presorted TrainingWorkspace.  Node-local state
/// is two parallel structures kept in lockstep:
///   - indices_: the seed engine's row array, partitioned with the same
///     std::partition call so leaf means sum in the identical order;
///   - order_/values_: per-feature mutable copies of the workspace's
///     sorted rows, split stably at each node so a node's segment is
///     always sorted by (value, row) without re-sorting.
/// Per-feature split search is side-effect free, so it can fan out on a
/// ThreadPool; candidates are reduced in feature order with the same
/// "improves by > 1e-15" rule, making the result independent of thread
/// count.
class TreeBuilder {
 public:
  TreeBuilder(DecisionTree& tree, const TrainingWorkspace& ws,
              const Matrix& x, std::span<const double> y)
      : tree_(tree), ws_(ws), x_(x), y_(y) {}

  void run() {
    const std::size_t n = x_.rows();
    const std::size_t p = x_.cols();
    indices_.resize(n);
    std::iota(indices_.begin(), indices_.end(), std::size_t{0});
    order_.resize(p);
    values_.resize(p);
    for (std::size_t f = 0; f < p; ++f) {
      const auto order = ws_.sorted_order(f);
      const auto values = ws_.sorted_values(f);
      order_[f].assign(order.begin(), order.end());
      values_[f].assign(values.begin(), values.end());
    }
    scratch_order_.resize(n);
    scratch_values_.resize(n);
    mark_.assign(n, 0);
    Rng rng(tree_.params_.seed);
    build_node(0, n, 1, rng);
  }

 private:
  struct Candidate {
    double gain = 0.0;
    double threshold = 0.0;
    bool found = false;
  };

  std::uint32_t build_node(std::size_t begin, std::size_t end, unsigned depth,
                           Rng& rng) {
    const TreeParams& params = tree_.params_;
    tree_.depth_ = std::max(tree_.depth_, depth);
    const std::size_t count = end - begin;
    const auto node_id = static_cast<std::uint32_t>(tree_.nodes_.size());
    tree_.nodes_.emplace_back();
    tree_.nodes_[node_id].value = subset_mean(y_, indices_, begin, end);

    if (depth >= params.max_depth || count < params.min_samples_split) {
      return node_id;
    }

    // Candidate features: all, or a random subset (random-forest mode).
    const std::size_t p = x_.cols();
    std::vector<std::size_t> features(p);
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t feature_count = p;
    if (params.max_features > 0 && params.max_features < p) {
      rng.shuffle(features);
      feature_count = params.max_features;
    }

    std::vector<Candidate> candidates(feature_count);
    const auto search_one = [&](std::size_t fi) {
      candidates[fi] = search(features[fi], begin, end);
    };
    if (params.pool != nullptr && count >= params.parallel_min_rows &&
        feature_count > 1) {
      params.pool->parallel_for(0, feature_count, search_one);
    } else {
      for (std::size_t fi = 0; fi < feature_count; ++fi) search_one(fi);
    }

    double best_gain = 0.0;
    std::size_t best_feature = p;
    double best_threshold = 0.0;
    for (std::size_t fi = 0; fi < feature_count; ++fi) {
      const Candidate& c = candidates[fi];
      if (c.found && c.gain > best_gain + 1e-15) {
        best_gain = c.gain;
        best_feature = features[fi];
        best_threshold = c.threshold;
      }
    }
    if (best_feature == p) return node_id;  // no useful split found

    const std::size_t mid =
        partition_node(begin, end, best_feature, best_threshold);
    GMD_ASSERT(mid > begin && mid < end, "degenerate partition");

    const std::uint32_t left = build_node(begin, mid, depth + 1, rng);
    const std::uint32_t right = build_node(mid, end, depth + 1, rng);
    tree_.nodes_[node_id].feature = static_cast<std::uint32_t>(best_feature);
    tree_.nodes_[node_id].threshold = best_threshold;
    tree_.nodes_[node_id].gain = best_gain;
    tree_.nodes_[node_id].left = left;
    tree_.nodes_[node_id].right = right;
    return node_id;
  }

  /// One pass over the node's presorted segment replaces the reference
  /// engine's gather + sort, with the identical prefix-sum arithmetic in
  /// the identical order.
  Candidate search(std::size_t feature, std::size_t begin,
                   std::size_t end) const {
    const TreeParams& params = tree_.params_;
    const std::uint32_t* ord = order_[feature].data();
    const double* vals = values_[feature].data();
    Candidate cand;
    if (vals[begin] == vals[end - 1]) return cand;  // constant
    const std::size_t count = end - begin;

    // Prefix sums of 1, y, y^2 for O(1) SSE at every cut.
    double total_w = 0.0, total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t idx = ord[i];
      total_w += 1.0;
      total_sum += y_[idx];
      total_sq += y_[idx] * y_[idx];
    }
    const double parent_sse = total_sq - total_sum * total_sum / total_w;

    double left_w = 0.0, left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = begin; i + 1 < end; ++i) {
      const std::size_t idx = ord[i];
      left_w += 1.0;
      left_sum += y_[idx];
      left_sq += y_[idx] * y_[idx];
      if (vals[i] == vals[i + 1]) continue;  // not a valid cut
      const std::size_t left_n = i + 1 - begin;
      const std::size_t right_n = count - left_n;
      if (left_n < params.min_samples_leaf ||
          right_n < params.min_samples_leaf) {
        continue;
      }
      const double right_w = total_w - left_w;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse = (left_sq - left_sum * left_sum / left_w) +
                         (right_sq - right_sum * right_sum / right_w);
      const double gain = parent_sse - sse;
      if (gain > cand.gain + 1e-15) {
        cand.gain = gain;
        cand.threshold = (vals[i] + vals[i + 1]) / 2.0;
        cand.found = true;
      }
    }
    return cand;
  }

  /// Partitions indices_[begin, end) exactly as the reference engine
  /// (same std::partition, same predicate outcomes), then splits every
  /// feature's sorted segment stably so both children stay presorted.
  std::size_t partition_node(std::size_t begin, std::size_t end,
                             std::size_t feature, double threshold) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t idx = indices_[i];
      mark_[idx] = x_.at(idx, feature) <= threshold ? 1 : 0;
    }
    const auto mid_iter = std::partition(
        indices_.begin() + static_cast<std::ptrdiff_t>(begin),
        indices_.begin() + static_cast<std::ptrdiff_t>(end),
        [this](std::size_t idx) { return mark_[idx] != 0; });
    const auto mid = static_cast<std::size_t>(mid_iter - indices_.begin());

    for (std::size_t f = 0; f < order_.size(); ++f) {
      std::uint32_t* ord = order_[f].data();
      double* vals = values_[f].data();
      std::size_t out = begin;
      std::size_t spill = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (mark_[ord[i]] != 0) {
          ord[out] = ord[i];
          vals[out] = vals[i];
          ++out;
        } else {
          scratch_order_[spill] = ord[i];
          scratch_values_[spill] = vals[i];
          ++spill;
        }
      }
      GMD_ASSERT(out == mid, "feature order out of sync with indices");
      std::copy_n(scratch_order_.data(), spill, ord + out);
      std::copy_n(scratch_values_.data(), spill, vals + out);
    }
    return mid;
  }

  DecisionTree& tree_;
  const TrainingWorkspace& ws_;
  const Matrix& x_;
  std::span<const double> y_;

  std::vector<std::size_t> indices_;
  std::vector<std::vector<std::uint32_t>> order_;  ///< Per feature.
  std::vector<std::vector<double>> values_;        ///< Aligned with order_.
  std::vector<std::uint8_t> mark_;                 ///< Left membership by row.
  std::vector<std::uint32_t> scratch_order_;
  std::vector<double> scratch_values_;
};

}  // namespace detail

void DecisionTree::fit(const Matrix& x, std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  if (params_.reference_mode) {
    nodes_.clear();
    depth_ = 0;
    std::vector<std::size_t> indices(x.rows());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    Rng rng(params_.seed);
    build_reference(x, y, indices, 0, indices.size(), 1, rng);
    return;
  }
  fit_with_workspace(TrainingWorkspace::build(x), x, y);
}

void DecisionTree::fit_with_workspace(const TrainingWorkspace& workspace,
                                      const Matrix& x,
                                      std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  GMD_REQUIRE(workspace.rows() == x.rows() &&
                  workspace.features() == x.cols(),
              "workspace shape mismatch");
  GMD_REQUIRE(!params_.reference_mode,
              "reference_mode trees do not take a workspace");
  nodes_.clear();
  depth_ = 0;
  detail::TreeBuilder(*this, workspace, x, y).run();
}

std::uint32_t DecisionTree::build_reference(
    const Matrix& x, std::span<const double> y,
    std::vector<std::size_t>& indices, std::size_t begin, std::size_t end,
    unsigned depth, gmd::Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t count = end - begin;
  const auto node_id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = subset_mean(y, indices, begin, end);

  if (depth >= params_.max_depth || count < params_.min_samples_split) {
    return node_id;
  }

  // Candidate features: all, or a random subset (random-forest mode).
  const std::size_t p = x.cols();
  std::vector<std::size_t> features(p);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t feature_count = p;
  if (params_.max_features > 0 && params_.max_features < p) {
    rng.shuffle(features);
    feature_count = params_.max_features;
  }

  // Best split: exact search per candidate feature over sorted values.
  double best_gain = 0.0;
  std::size_t best_feature = p;
  double best_threshold = 0.0;

  std::vector<std::pair<double, std::size_t>> sorted;  // (value, index)
  sorted.reserve(count);
  for (std::size_t fi = 0; fi < feature_count; ++fi) {
    const std::size_t feature = features[fi];
    sorted.clear();
    for (std::size_t i = begin; i < end; ++i) {
      sorted.emplace_back(x.at(indices[i], feature), indices[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;  // constant

    // Prefix sums of 1, y, y^2 for O(1) SSE at every cut.
    double left_w = 0.0, left_sum = 0.0, left_sq = 0.0;
    double total_w = 0.0, total_sum = 0.0, total_sq = 0.0;
    for (const auto& [value, idx] : sorted) {
      total_w += 1.0;
      total_sum += y[idx];
      total_sq += y[idx] * y[idx];
      (void)value;
    }
    const double parent_sse =
        total_sq - total_sum * total_sum / total_w;

    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const auto& [value, idx] = sorted[i];
      left_w += 1.0;
      left_sum += y[idx];
      left_sq += y[idx] * y[idx];
      if (value == sorted[i + 1].first) continue;  // not a valid cut
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < params_.min_samples_leaf ||
          right_n < params_.min_samples_leaf) {
        continue;
      }
      const double right_w = total_w - left_w;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse = (left_sq - left_sum * left_sum / left_w) +
                         (right_sq - right_sum * right_sum / right_w);
      const double gain = parent_sse - sse;
      if (gain > best_gain + 1e-15) {
        best_gain = gain;
        best_feature = feature;
        best_threshold = (value + sorted[i + 1].first) / 2.0;
      }
    }
  }

  if (best_feature == p) return node_id;  // no useful split found

  // Partition indices[begin, end) by the chosen split.
  const auto mid_iter = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t idx) {
        return x.at(idx, best_feature) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_iter - indices.begin());
  GMD_ASSERT(mid > begin && mid < end, "degenerate partition");

  const std::uint32_t left =
      build_reference(x, y, indices, begin, mid, depth + 1, rng);
  const std::uint32_t right =
      build_reference(x, y, indices, mid, end, depth + 1, rng);
  nodes_[node_id].feature = static_cast<std::uint32_t>(best_feature);
  nodes_[node_id].threshold = best_threshold;
  nodes_[node_id].gain = best_gain;
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTree::predict_one(std::span<const double> x) const {
  GMD_REQUIRE(is_fitted(), "predict before fit");
  std::uint32_t node = 0;
  while (nodes_[node].feature != Node::kLeaf) {
    GMD_REQUIRE(nodes_[node].feature < x.size(), "feature count mismatch");
    node = x[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

double DecisionTree::traverse(const double* features) const {
  const Node* nodes = nodes_.data();
  std::uint32_t node = 0;
  while (nodes[node].feature != Node::kLeaf) {
    node = features[nodes[node].feature] <= nodes[node].threshold
               ? nodes[node].left
               : nodes[node].right;
  }
  return nodes[node].value;
}

std::vector<double> DecisionTree::predict(const Matrix& x) const {
  GMD_REQUIRE(is_fitted(), "predict before fit");
  // Validate feature bounds once, then traverse check-free.
  for (const Node& node : nodes_) {
    GMD_REQUIRE(node.feature == Node::kLeaf || node.feature < x.cols(),
                "feature count mismatch");
  }
  std::vector<double> out(x.rows());
  const InferencePlan plan = make_plan();
  traverse_block(plan, x, 0, x.rows(), out.data());
  return out;
}

DecisionTree::InferencePlan DecisionTree::make_plan() const {
  InferencePlan plan;
  plan.nodes.resize(nodes_.size());
  plan.values.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    PlanNode& out = plan.nodes[i];
    plan.values[i] = node.value;
    if (node.feature == Node::kLeaf) {
      // Self-loop: x[0] <= +inf always holds, and a NaN feature (which
      // compares false) still lands on `right` = self.
      out.threshold = std::numeric_limits<double>::infinity();
      out.feature = 0;
      out.left = static_cast<std::uint32_t>(i);
      out.right = static_cast<std::uint32_t>(i);
    } else {
      out.threshold = node.threshold;
      out.feature = node.feature;
      out.left = node.left;
      out.right = node.right;
    }
  }
  plan.steps = depth_;
  return plan;
}

void DecisionTree::traverse_block(const InferencePlan& plan, const Matrix& x,
                                  std::size_t begin, std::size_t end,
                                  double* out) {
  if (begin == end) return;
  const PlanNode* nodes = plan.nodes.data();
  const double* values = plan.values.data();
  // Row-major matrix: rows are base + r * stride, no per-row calls.
  const double* base = x.row(0).data();
  const std::size_t stride = x.cols();
  constexpr std::size_t kLanes = 16;
  std::size_t r = begin;
  for (; r + kLanes <= end; r += kLanes) {
    const double* rows[kLanes];
    std::uint32_t node[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      rows[lane] = base + (r + lane) * stride;
      node[lane] = 0;
    }
    for (unsigned step = 0; step < plan.steps; ++step) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const PlanNode& current = nodes[node[lane]];
        // Arithmetic select: the ternary compiles to a data-dependent
        // branch that mispredicts ~50% of the time; the mask keeps the
        // step branch-free.  NaN compares false and goes right, exactly
        // like the reference traversal.
        const std::uint32_t mask = 0U - static_cast<std::uint32_t>(
            rows[lane][current.feature] <= current.threshold);
        node[lane] = (current.left & mask) | (current.right & ~mask);
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      out[r - begin + lane] = values[node[lane]];
    }
  }
  for (; r < end; ++r) {
    std::uint32_t node = 0;
    const double* row = base + r * stride;
    for (unsigned step = 0; step < plan.steps; ++step) {
      const PlanNode& current = nodes[node];
      const std::uint32_t mask = 0U - static_cast<std::uint32_t>(
          row[current.feature] <= current.threshold);
      node = (current.left & mask) | (current.right & ~mask);
    }
    out[r - begin] = values[node];
  }
}

void DecisionTree::accumulate_block(std::span<const InferencePlan> plans,
                                    double scale, const Matrix& x,
                                    std::size_t begin, std::size_t end,
                                    double* inout) {
  if (begin == end || plans.empty()) return;
  const double* base = x.row(0).data();
  const std::size_t stride = x.cols();
  constexpr std::size_t kLanes = 16;
  std::size_t r = begin;
  for (; r + kLanes <= end; r += kLanes) {
    const double* rows[kLanes];
    double acc[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      rows[lane] = base + (r + lane) * stride;
      acc[lane] = inout[r - begin + lane];
    }
    for (const InferencePlan& plan : plans) {
      const PlanNode* nodes = plan.nodes.data();
      std::uint32_t node[kLanes] = {};
      for (unsigned step = 0; step < plan.steps; ++step) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          const PlanNode& current = nodes[node[lane]];
          const std::uint32_t mask = 0U - static_cast<std::uint32_t>(
              rows[lane][current.feature] <= current.threshold);
          node[lane] = (current.left & mask) | (current.right & ~mask);
        }
      }
      const double* values = plan.values.data();
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        acc[lane] += scale * values[node[lane]];
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      inout[r - begin + lane] = acc[lane];
    }
  }
  for (; r < end; ++r) {
    const double* row = base + r * stride;
    double acc = inout[r - begin];
    for (const InferencePlan& plan : plans) {
      const PlanNode* nodes = plan.nodes.data();
      std::uint32_t node = 0;
      for (unsigned step = 0; step < plan.steps; ++step) {
        const PlanNode& current = nodes[node];
        const std::uint32_t mask = 0U - static_cast<std::uint32_t>(
            row[current.feature] <= current.threshold);
        node = (current.left & mask) | (current.right & ~mask);
      }
      acc += scale * plan.values[node];
    }
    inout[r - begin] = acc;
  }
}

std::unique_ptr<Regressor> DecisionTree::clone() const {
  return std::make_unique<DecisionTree>(*this);
}

std::vector<double> DecisionTree::feature_importances(
    std::size_t num_features) const {
  std::vector<double> importances(num_features, 0.0);
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (node.feature == Node::kLeaf) continue;
    GMD_REQUIRE(node.feature < num_features,
                "tree uses feature " << node.feature
                                     << " beyond num_features "
                                     << num_features);
    importances[node.feature] += node.gain;
    total += node.gain;
  }
  if (total > 0.0) {
    for (double& value : importances) value /= total;
  }
  return importances;
}

void DecisionTree::write(std::ostream& os) const {
  os << "tree " << nodes_.size() << " " << depth_ << "\n";
  os.precision(17);
  for (const Node& node : nodes_) {
    os << node.feature << " " << node.threshold << " " << node.value << " "
       << node.gain << " " << node.left << " " << node.right << "\n";
  }
}

DecisionTree DecisionTree::read(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  unsigned depth = 0;
  is >> tag >> count >> depth;
  GMD_REQUIRE(is.good() && tag == "tree", "not a serialized tree");
  DecisionTree tree;
  tree.depth_ = depth;
  tree.nodes_.resize(count);
  for (Node& node : tree.nodes_) {
    is >> node.feature >> node.threshold >> node.value >> node.gain >>
        node.left >> node.right;
    GMD_REQUIRE(!is.fail(), "truncated serialized tree");
    GMD_REQUIRE(node.feature == Node::kLeaf ||
                    (node.left < count && node.right < count),
                "serialized tree has dangling child links");
  }
  GMD_REQUIRE(count >= 1, "serialized tree is empty");
  return tree;
}

}  // namespace gmd::ml
