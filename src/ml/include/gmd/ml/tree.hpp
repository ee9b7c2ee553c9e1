#pragma once

/// \file tree.hpp
/// CART regression tree: binary splits minimizing squared error.
/// Used directly and as the weak/strong learner inside the random
/// forest and gradient-boosting ensembles.
///
/// Split search runs over a presorted TrainingWorkspace: every feature
/// is sorted once per fit and nodes partition stable index ranges, so
/// finding the best cut is O(rows) per node instead of an
/// O(rows log rows) re-sort per candidate feature.  The pre-workspace
/// engine survives behind TreeParams::reference_mode for
/// golden-equivalence testing.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/ml/regressor.hpp"
#include "gmd/ml/workspace.hpp"

namespace gmd {
class ThreadPool;
}

namespace gmd::ml {

namespace detail {
class TreeBuilder;
}

struct TreeParams {
  unsigned max_depth = 16;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features considered per split; 0 means all (plain CART).
  /// Random forests pass ~p/3.
  std::size_t max_features = 0;
  std::uint64_t seed = 1;  ///< Only used when max_features > 0.

  /// Runs the original per-node re-sort engine instead of the
  /// workspace engine (the seed implementation, kept as the golden
  /// reference like MemSimOptions::reference_mode).
  bool reference_mode = false;

  /// Optional worker pool for per-feature split search on large nodes.
  /// Results are reduced in feature order, so the fit is bit-identical
  /// with any thread count.  Non-owning; must outlive fit().
  ThreadPool* pool = nullptr;
  /// Nodes smaller than this search serially even when a pool is set
  /// (task overhead dominates below it).
  std::size_t parallel_min_rows = 4096;
};

class DecisionTree final : public Regressor {
 public:
  explicit DecisionTree(const TreeParams& params = {});

  void fit(const Matrix& x, std::span<const double> y) override;

  /// Fits against a prebuilt workspace for `x` (the ensemble path: the
  /// workspace is built once and shared across trees/stages).
  void fit_with_workspace(const TrainingWorkspace& workspace, const Matrix& x,
                          std::span<const double> y);

  double predict_one(std::span<const double> x) const override;
  std::vector<double> predict(const Matrix& x) const override;
  std::string name() const override { return "tree"; }
  std::unique_ptr<Regressor> clone() const override;
  bool is_fitted() const override { return !nodes_.empty(); }

  std::size_t node_count() const { return nodes_.size(); }
  unsigned depth() const { return depth_; }

  /// Impurity-based importance: total SSE reduction attributed to each
  /// feature, normalized to sum to 1 (all-zero for a single leaf).
  /// `num_features` must cover every feature index used in the tree.
  std::vector<double> feature_importances(std::size_t num_features) const;

  /// Text (de)serialization; see serialize.hpp.
  void write(std::ostream& os) const;
  static DecisionTree read(std::istream& is);

 private:
  friend class detail::TreeBuilder;
  friend class RandomForest;
  friend class GradientBoosting;

  struct Node {
    // Leaf when feature == kLeaf.
    static constexpr std::uint32_t kLeaf = UINT32_MAX;
    std::uint32_t feature = kLeaf;
    double threshold = 0.0;  ///< Go left when x[feature] <= threshold.
    double value = 0.0;      ///< Leaf prediction.
    double gain = 0.0;       ///< SSE reduction of this split (0 at leaves).
    std::uint32_t left = 0;
    std::uint32_t right = 0;
  };

  /// The reference (seed) engine: per-node (value, index) sort.
  std::uint32_t build_reference(const Matrix& x, std::span<const double> y,
                                std::vector<std::size_t>& indices,
                                std::size_t begin, std::size_t end,
                                unsigned depth, gmd::Rng& rng);

  /// Walks one already-validated feature row to its leaf value.
  double traverse(const double* features) const;

  /// Compact branch-free traversal layout for batch inference: leaves
  /// self-loop (threshold +inf, both children = self) so every row can
  /// take exactly `steps` unconditional node hops — no per-level leaf
  /// test, so the interleaved lanes' loads stay in flight.
  struct PlanNode {
    double threshold;
    std::uint32_t feature;
    std::uint32_t left;
    std::uint32_t right;
  };
  struct InferencePlan {
    std::vector<PlanNode> nodes;
    std::vector<double> values;  ///< Leaf value per node id.
    unsigned steps = 0;
  };
  InferencePlan make_plan() const;

  /// Walks rows [begin, end) to their leaf values (written to
  /// out[0 .. end-begin)).  Interleaves several rows' traversals so
  /// their node loads overlap — tree walking is latency-bound, and one
  /// row at a time leaves the memory pipeline idle between levels.
  static void traverse_block(const InferencePlan& plan, const Matrix& x,
                             std::size_t begin, std::size_t end, double* out);

  /// Adds scale * leaf(plan, row) for every plan, in plan order, to
  /// inout[0 .. end-begin).  Row-group-major with all plans inner: the
  /// right loop order for many small trees (boosting stages), whose
  /// plans all stay cache-resident while each row group's accumulators
  /// sit in registers.
  static void accumulate_block(std::span<const InferencePlan> plans,
                               double scale, const Matrix& x,
                               std::size_t begin, std::size_t end,
                               double* inout);

  TreeParams params_;
  std::vector<Node> nodes_;
  unsigned depth_ = 0;
};

}  // namespace gmd::ml
