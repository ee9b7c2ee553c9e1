#pragma once

/// \file explorer.hpp
/// Closed-loop surrogate-guided exploration of lazy design spaces — the
/// ROADMAP item-4 engine: explore a >= 10^6-point space with only
/// hundreds of simulations.
///
/// Four layers:
///   1. stream_score_topk — streams a LazySpace block-at-a-time through
///      a caller-supplied scorer sharded across a thread pool, keeping
///      only bounded top-K heaps (never all N scores).  Selection is a
///      total order (score desc, space index asc), so the result is
///      bit-identical for any block size, thread count, or merge order.
///   2. Acquisition scorers over the fitted surrogate: max predictive
///      uncertainty (GP variance / forest spread), expected
///      improvement, best predicted value, or a seeded random
///      permutation of the space (the random-sampling baseline).
///   3. run_explorer — deterministic seed sample -> simulate via
///      run_sweep -> train -> stream-score -> acquire batch -> repeat
///      under a round/simulation budget.  With a run directory, every
///      round's acquisition is appended to `rounds.txt` BEFORE its
///      simulations run and completed rows land in a SweepJournal
///      keyed by the space checksum, so a SIGKILL at any instant
///      resumes to the bit-identical final result.  `rounds.txt` is a
///      gmd::RecordLog (record_log.hpp) with one checksummed record per
///      round:
///
///        gmd-explorer-rounds v1 space=<16-hex> trace=<16-hex> opts=<16-hex>
///        round <r> <count> <space index>...
///
///      A torn last round is cut off on resume and simply re-acquired.
///   4. run_learning_curve — the same loop over a candidate pool,
///      scoring every fitted surrogate on a pre-simulated holdout: the
///      label-efficiency study of the paper's §V (active learning vs
///      random sampling).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/ml/matrix.hpp"

namespace gmd::dse {

// --- streaming top-K ---------------------------------------------------

struct ScoredPoint {
  std::size_t index = 0;  ///< Index into the lazy space.
  double score = 0.0;     ///< Acquisition score; higher is picked first.

  friend bool operator==(const ScoredPoint&, const ScoredPoint&) = default;
};

/// The total selection order: higher score first, ties to the lower
/// space index.  Every candidate is comparable, which is what makes the
/// parallel top-K deterministic.
bool scored_before(const ScoredPoint& a, const ScoredPoint& b);

/// Scores one decoded block: `x` holds the RAW (unscaled) feature rows
/// of space indices [first, first + x.rows()); writes one score per row
/// into `out`.  Invoked concurrently from pool workers — capture only
/// const/fitted state.
using BlockScorer = std::function<void(
    const ml::Matrix& x, std::size_t first, std::span<double> out)>;

/// Counters from a streaming pass (for benches and logs).
struct StreamStats {
  std::size_t scored = 0;  ///< Rows offered to the heaps (skip excluded).
  std::size_t blocks = 0;

  StreamStats& operator+=(const StreamStats& other) {
    scored += other.scored;
    blocks += other.blocks;
    return *this;
  }
};

/// Streams the whole space through `scorer` and returns the best `k`
/// candidates under scored_before(), excluding indices in `skip_sorted`
/// (ascending; the already-labeled set).  Peak memory is O(block_size x
/// num_threads + k), independent of space size.
std::vector<ScoredPoint> stream_score_topk(
    const LazySpace& space, const BlockScorer& scorer, std::size_t k,
    std::span<const std::size_t> skip_sorted = {},
    std::size_t block_size = 8192, std::size_t num_threads = 1,
    StreamStats* stats = nullptr);

// --- the closed loop ---------------------------------------------------

enum class Acquisition {
  kMaxVariance,          ///< GP predictive variance / forest spread.
  kExpectedImprovement,  ///< EI over the best observed target.
  kBestPredicted,        ///< Pure exploitation: best predicted value.
  /// Random sampling: a seeded hash of the space index, i.e. one fixed
  /// permutation of the space, drawn without replacement.
  kRandom,
};

std::string to_string(Acquisition acquisition);
Acquisition parse_acquisition(const std::string& name);

struct ExplorerOptions {
  /// Target metric driving acquisition (a MemoryMetrics metric name).
  std::string metric = "total_latency_cycles";
  std::string model = "gp";  ///< Surrogate family: "gp" | "rf".
  Acquisition acquisition = Acquisition::kExpectedImprovement;
  /// Spend the last budgeted round on best-predicted acquisition
  /// regardless of `acquisition`: the closing batch simulates the
  /// surrogate's predicted winners, so the final top-k is backed by
  /// observations instead of unverified predictions.
  bool exploit_final_round = true;

  std::size_t initial_samples = 32;   ///< Deterministic seed sample.
  std::size_t batch_size = 16;        ///< Points acquired per round.
  std::size_t max_rounds = 8;         ///< Acquisition rounds after the seed.
  std::size_t simulation_budget = 128;  ///< Total points, seed included.
  std::size_t top_k = 10;             ///< Final recommendation size.
  std::uint64_t seed = 1;

  std::size_t block_size = 8192;  ///< Streaming block (rows).
  std::size_t num_threads = 1;    ///< Scoring threads (0: hardware).

  double gp_gamma = 2.0;  ///< RBF width on scaled features.
  double gp_noise = 1e-4;
  std::size_t rf_trees = 64;

  /// Journal directory (rounds trajectory + sweep journal).  Empty: run
  /// in memory only, no kill-and-resume.
  std::string run_dir;
  /// Load the run_dir journals and continue where a killed run stopped.
  bool resume = false;

  /// Base options for each round's simulations.  The checkpoint fields
  /// are managed by the explorer (rows are journaled per space index
  /// through row_sink); leave them empty.
  SweepOptions sweep;

  /// Invoked after each round is fully simulated and journaled, with
  /// the number of completed rounds (1 = seed round).  Tests use it to
  /// kill or throw mid-run; replayed rounds fire it again on resume.
  std::function<void(std::size_t completed_rounds)> round_hook;

  /// Metric pairs for the emitted Pareto fronts over simulated points.
  /// Empty: {power_w, total_latency_cycles} and {power_w, bandwidth_mbs}.
  std::vector<std::pair<std::string, std::string>> pareto_pairs;
};

struct ExplorerRound {
  std::size_t round = 0;                ///< 0 = seed sample.
  std::vector<std::size_t> acquired;    ///< Space indices, pick order.
  std::size_t newly_simulated = 0;      ///< Simulated by THIS process.
  double best_value = 0.0;  ///< Best observed target after the round.
};

struct ParetoFrontPair {
  std::string metric_a;
  std::string metric_b;
  /// Indices into ExplorerResult::labeled of the non-dominated points.
  std::vector<std::size_t> entries;
};

struct ExplorerResult {
  std::size_t space_size = 0;
  std::vector<ExplorerRound> rounds;
  /// Every simulated point, sorted by space index.
  std::vector<std::pair<std::size_t, SweepRow>> labeled;
  /// Final top-k recommendation, best first.  `score` is the target
  /// metric in physical units: the observed value for simulated points,
  /// the surrogate prediction for everything else.
  std::vector<ScoredPoint> top;
  std::vector<ParetoFrontPair> fronts;
  StreamStats stream;  ///< Totals across all scoring passes.
};

/// Runs (or resumes) the closed loop over `space` against `trace`.
ExplorerResult run_explorer(const LazySpace& space,
                            std::span<const cpusim::MemoryEvent> trace,
                            const ExplorerOptions& options = {});

// --- learning curves ---------------------------------------------------

/// Holdout accuracy of one fitted surrogate.
struct LearningCurvePoint {
  std::size_t labels_used = 0;  ///< Points simulated before the fit.
  double r2_on_holdout = 0.0;
  double mse_on_holdout = 0.0;  ///< In the metric's physical units.
};

struct LearningCurve {
  std::vector<LearningCurvePoint> curve;       ///< One point per fit.
  std::vector<std::size_t> acquisition_order;  ///< Pool indices, in order.
};

/// Runs the loop over `pool` (simulating what it acquires against
/// `trace`) and scores every fitted surrogate on `holdout`, pre-simulated
/// rows of the same trace.  options.acquisition is the strategy under
/// study: kMaxVariance is active learning, kRandom its baseline.  The
/// run is in memory and stops only at simulation_budget: it forces
/// exploit_final_round = false, max_rounds = pool.size() and no run_dir.
LearningCurve run_learning_curve(const LazySpace& pool,
                                 std::span<const cpusim::MemoryEvent> trace,
                                 std::span<const SweepRow> holdout,
                                 ExplorerOptions options);

// --- agreement vs exhaustive ground truth ------------------------------

/// Row indices of the `k` best rows by observed `metric` (direction-
/// aware, ties to the lower index), skipping non-ok rows.
std::vector<std::size_t> exhaustive_topk(std::span<const SweepRow> rows,
                                         const std::string& metric,
                                         std::size_t k);

/// Fraction of `truth` present in `picks` (order-insensitive overlap).
double topk_agreement(std::span<const std::size_t> picks,
                      std::span<const std::size_t> truth);

}  // namespace gmd::dse
