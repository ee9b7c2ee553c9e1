#include "gmd/dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/record_log.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/pareto.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gp.hpp"
#include "gmd/ml/metrics.hpp"
#include "gmd/ml/scaler.hpp"

namespace gmd::dse {

bool scored_before(const ScoredPoint& a, const ScoredPoint& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

namespace {

/// Bounded best-k set under scored_before.  The heap front is the worst
/// retained candidate (scored_before as the heap comparator puts the
/// element that precedes nothing at the front), so offer() is O(log k).
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void offer(const ScoredPoint& p) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(p);
      std::push_heap(heap_.begin(), heap_.end(), scored_before);
      return;
    }
    if (scored_before(p, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), scored_before);
      heap_.back() = p;
      std::push_heap(heap_.begin(), heap_.end(), scored_before);
    }
  }

  void merge_into(TopK& other) const {
    for (const ScoredPoint& p : heap_) other.offer(p);
  }

  std::vector<ScoredPoint> sorted() const {
    std::vector<ScoredPoint> out = heap_;
    std::sort(out.begin(), out.end(), scored_before);
    return out;
  }

 private:
  std::size_t k_;
  std::vector<ScoredPoint> heap_;
};

}  // namespace

std::vector<ScoredPoint> stream_score_topk(
    const LazySpace& space, const BlockScorer& scorer, std::size_t k,
    std::span<const std::size_t> skip_sorted, std::size_t block_size,
    std::size_t num_threads, StreamStats* stats) {
  GMD_REQUIRE(static_cast<bool>(scorer), "stream_score_topk needs a scorer");
  GMD_REQUIRE(block_size >= 1, "block size must be >= 1");
  GMD_REQUIRE(std::is_sorted(skip_sorted.begin(), skip_sorted.end()),
              "skip list must be sorted ascending");
  const std::size_t n = space.size();
  const std::size_t width = DesignPoint::feature_names().size();
  if (n == 0 || k == 0) return {};

  const std::size_t num_blocks = (n + block_size - 1) / block_size;
  TopK global(k);
  std::mutex merge_mutex;
  std::size_t scored_total = 0;

  ThreadPool pool(num_threads);
  pool.parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t begin = b * block_size;
    const std::size_t end = std::min(n, begin + block_size);
    const std::size_t rows = end - begin;

    // Per-thread block buffers, reused across the blocks a worker
    // claims; peak memory is O(block_size x threads), never O(n).
    thread_local ml::Matrix x;
    thread_local std::vector<double> scores;
    if (x.rows() != rows || x.cols() != width) x = ml::Matrix(rows, width);
    scores.resize(rows);

    space.decode_features(begin, end,
                          std::span(x.row(0).data(), rows * width));
    scorer(x, begin, scores);

    TopK local(k);
    std::size_t offered = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t index = begin + r;
      if (std::binary_search(skip_sorted.begin(), skip_sorted.end(), index)) {
        continue;
      }
      local.offer({index, scores[r]});
      ++offered;
    }
    {
      const std::lock_guard<std::mutex> lock(merge_mutex);
      local.merge_into(global);
      scored_total += offered;
    }
  });

  if (stats != nullptr) {
    stats->scored += scored_total;
    stats->blocks += num_blocks;
  }
  return global.sorted();
}

std::string to_string(Acquisition acquisition) {
  switch (acquisition) {
    case Acquisition::kMaxVariance:
      return "variance";
    case Acquisition::kExpectedImprovement:
      return "ei";
    case Acquisition::kBestPredicted:
      return "best";
    case Acquisition::kRandom:
      return "random";
  }
  return "?";
}

Acquisition parse_acquisition(const std::string& name) {
  if (name == "variance") return Acquisition::kMaxVariance;
  if (name == "ei") return Acquisition::kExpectedImprovement;
  if (name == "best") return Acquisition::kBestPredicted;
  if (name == "random") return Acquisition::kRandom;
  GMD_REQUIRE_AS(ErrorCode::kConfig, false,
                 "unknown acquisition '" << name
                                         << "' (variance|ei|best|random)");
  return Acquisition::kMaxVariance;  // unreachable
}

namespace {

std::size_t metric_index(const std::string& metric) {
  const auto& names = memsim::MemoryMetrics::metric_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == metric) return i;
  }
  GMD_REQUIRE_AS(ErrorCode::kConfig, false,
                 "unknown metric '" << metric << "'");
  return 0;  // unreachable
}

double metric_value(const SweepRow& row, std::size_t index) {
  return row.metrics.metric_values()[index];
}

/// The fitted surrogate of one round plus everything the scorers need.
struct Surrogate {
  bool is_gp = true;
  ml::GaussianProcess gp;
  ml::RandomForest rf{ml::ForestParams{}};
  const ml::MinMaxScaler* x_scaler = nullptr;  ///< Space-bounds scaler.
  ml::MinMaxScaler y_scaler;                   ///< Fit on labeled targets.
  Direction direction = Direction::kMinimize;
  double best_scaled_y = 0.0;  ///< Direction-best observed scaled target.
  std::uint64_t seed = 0;      ///< Run seed: kRandom's permutation.

  /// Means (and optionally variances) for a scaled block.  Const and
  /// allocation-local, so safe to call from several workers at once.
  void eval(const ml::Matrix& xs, std::vector<double>& mu,
            std::vector<double>& var, bool need_variance) const {
    if (is_gp) {
      if (need_variance) {
        gp.predict_with_variance(xs, mu, var);
      } else {
        mu = gp.predict(xs);
      }
    } else {
      if (need_variance) {
        rf.predict_with_spread(xs, mu, var);
      } else {
        mu = rf.predict(xs);
      }
    }
  }

  double to_physical(double scaled) const {
    const double lo = y_scaler.mins()[0];
    const double hi = y_scaler.maxs()[0];
    return lo + (hi - lo) * scaled;
  }
};

Surrogate train_surrogate(
    const ExplorerOptions& options, const ml::MinMaxScaler& x_scaler,
    std::size_t metric_idx,
    const std::map<std::size_t, SweepRow>& labeled) {
  std::vector<const SweepRow*> ok_rows;
  for (const auto& [index, row] : labeled) {
    if (row.ok()) ok_rows.push_back(&row);
  }
  GMD_REQUIRE_AS(ErrorCode::kInvalidData, ok_rows.size() >= 2,
                 "explorer needs >= 2 simulated points to train (have "
                     << ok_rows.size() << ")");

  const std::size_t width = DesignPoint::feature_names().size();
  ml::Matrix x(ok_rows.size(), width);
  std::vector<double> y(ok_rows.size());
  for (std::size_t r = 0; r < ok_rows.size(); ++r) {
    ok_rows[r]->point.write_features(x.row(r));
    y[r] = metric_value(*ok_rows[r], metric_idx);
  }

  Surrogate s;
  s.is_gp = options.model == "gp";
  s.x_scaler = &x_scaler;
  s.direction = metric_direction(options.metric);
  s.seed = options.seed;
  s.y_scaler.fit(std::span<const double>(y));
  const std::vector<double> ys = s.y_scaler.transform(y);
  const ml::Matrix xs = x_scaler.transform(x);

  if (s.is_gp) {
    ml::GpParams params;
    params.kernel.gamma = options.gp_gamma;
    params.noise = options.gp_noise;
    s.gp = ml::GaussianProcess(params);
    s.gp.fit(xs, ys);
  } else {
    ml::ForestParams params;
    params.num_trees = options.rf_trees;
    params.seed = options.seed;
    params.num_threads = options.num_threads;
    s.rf = ml::RandomForest(params);
    s.rf.fit(xs, ys);
  }

  s.best_scaled_y = ys.front();
  for (const double v : ys) {
    if (s.direction == Direction::kMinimize) {
      s.best_scaled_y = std::min(s.best_scaled_y, v);
    } else {
      s.best_scaled_y = std::max(s.best_scaled_y, v);
    }
  }
  return s;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::acos(-1.0));
}

/// Builds the acquisition scorer over a fitted surrogate.  `s` must
/// outlive the returned closure.
BlockScorer make_acquisition_scorer(const Surrogate& s,
                                    Acquisition acquisition) {
  return [&s, acquisition](const ml::Matrix& x, std::size_t first,
                           std::span<double> out) {
    if (acquisition == Acquisition::kRandom) {
      // A hash of the space index alone: the same permutation for any
      // block size or thread count, and the skip list keeps it without
      // replacement.  The top 53 bits convert to a double exactly.
      for (std::size_t r = 0; r < x.rows(); ++r) {
        std::uint64_t state = s.seed ^ ((first + r) * 0x9e3779b97f4a7c15ULL);
        out[r] = static_cast<double>(splitmix64(state) >> 11);
      }
      return;
    }
    thread_local std::vector<double> mu;
    thread_local std::vector<double> var;
    const ml::Matrix xs = s.x_scaler->transform(x);
    const bool need_variance = acquisition != Acquisition::kBestPredicted;
    s.eval(xs, mu, var, need_variance);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      switch (acquisition) {
        case Acquisition::kMaxVariance:
          out[r] = var[r];
          break;
        case Acquisition::kExpectedImprovement: {
          const double improvement = s.direction == Direction::kMinimize
                                         ? s.best_scaled_y - mu[r]
                                         : mu[r] - s.best_scaled_y;
          const double sigma = std::sqrt(std::max(0.0, var[r]));
          if (sigma <= 0.0) {
            out[r] = std::max(0.0, improvement);
          } else {
            const double z = improvement / sigma;
            out[r] = improvement * normal_cdf(z) + sigma * normal_pdf(z);
          }
          break;
        }
        case Acquisition::kBestPredicted:
          out[r] = s.direction == Direction::kMinimize ? -mu[r] : mu[r];
          break;
        case Acquisition::kRandom:  // scored above, without the model
          break;
      }
    }
  };
}

// --- rounds trajectory journal -----------------------------------------

std::uint64_t options_identity(const ExplorerOptions& options) {
  // The knobs that determine the trajectory (and so the final result).
  // num_threads and block_size are deliberately absent: rounds are
  // thread- and block-invariant, so a resume may use different ones.
  Fnv1a h;
  h.mix_bytes(options.metric.data(), options.metric.size());
  h.mix_bytes(options.model.data(), options.model.size());
  h.mix(static_cast<std::uint64_t>(options.acquisition));
  h.mix(options.initial_samples);
  h.mix(options.batch_size);
  h.mix(options.max_rounds);
  h.mix(options.simulation_budget);
  h.mix(options.top_k);
  h.mix(options.seed);
  h.mix(options.exploit_final_round ? 1u : 0u);
  h.mix_double(options.gp_gamma);
  h.mix_double(options.gp_noise);
  h.mix(options.rf_trees);
  return h.state;
}

std::string encode_round(std::size_t round,
                         const std::vector<std::size_t>& acquired) {
  std::ostringstream record;
  record << "round " << round << ' ' << acquired.size();
  for (const std::size_t index : acquired) record << ' ' << index;
  return record.str();
}

/// One journaled round: `round <r> <count> <space index>...`.
std::vector<std::size_t> decode_round(const std::string& record,
                                      std::size_t round,
                                      std::size_t space_size) {
  std::istringstream in(record);
  std::string word;
  std::size_t index = 0;
  std::size_t count = 0;
  in >> word >> index >> count;
  GMD_REQUIRE_AS(ErrorCode::kIo,
                 !in.fail() && word == "round" && index == round,
                 "corrupt rounds journal record '" << record << "'");
  std::vector<std::size_t> acquired(count);
  for (std::size_t& point : acquired) {
    in >> point;
    GMD_REQUIRE_AS(ErrorCode::kIo, !in.fail() && point < space_size,
                   "corrupt rounds journal record '" << record << "'");
  }
  return acquired;
}

/// Observes every surrogate the loop fits, with the number of points
/// simulated so far.
using FitHook = std::function<void(const Surrogate&, std::size_t labeled)>;

/// The closed loop behind run_explorer and run_learning_curve.
ExplorerResult explore(const LazySpace& space,
                       std::span<const cpusim::MemoryEvent> trace,
                       const ExplorerOptions& options,
                       const FitHook& fit_hook) {
  GMD_REQUIRE(options.initial_samples >= 2, "need >= 2 initial samples");
  GMD_REQUIRE(options.batch_size >= 1, "batch size must be >= 1");
  GMD_REQUIRE(options.simulation_budget >= options.initial_samples,
              "simulation budget below the initial sample size");
  GMD_REQUIRE(options.top_k >= 1, "top_k must be >= 1");
  GMD_REQUIRE(options.model == "gp" || options.model == "rf",
              "explorer model must be gp or rf");
  GMD_REQUIRE(space.size() >= 2, "explorer needs a non-trivial space");
  const std::size_t metric_idx = metric_index(options.metric);
  const Direction direction = metric_direction(options.metric);

  // Space-level feature bounds: one streamed pass fits the X scaler for
  // every round, so retrains are deterministic regardless of which
  // subset happens to be labeled.
  ml::MinMaxScaler x_scaler;
  {
    std::vector<double> mins, maxs;
    space.feature_bounds(mins, maxs);
    for (std::size_t f = 0; f < mins.size(); ++f) {
      if (mins[f] > maxs[f]) std::swap(mins[f], maxs[f]);
    }
    x_scaler = ml::MinMaxScaler::from_bounds(std::move(mins), std::move(maxs));
  }

  // --- journal substrate -------------------------------------------------
  const std::uint64_t space_hash = space.checksum();
  const std::uint64_t trace_hash = trace_checksum(trace);
  const std::uint64_t opts_hash = options_identity(options);
  std::optional<RecordLog> rounds_log;
  std::unique_ptr<SweepJournal> journal;
  std::map<std::size_t, SweepRow> labeled;
  std::vector<std::vector<std::size_t>> trajectory;

  if (!options.run_dir.empty()) {
    std::filesystem::create_directories(options.run_dir);
    std::ostringstream identity;
    identity << "gmd-explorer-rounds v1 space=" << to_hex16(space_hash)
             << " trace=" << to_hex16(trace_hash)
             << " opts=" << to_hex16(opts_hash);
    rounds_log.emplace(options.run_dir + "/rounds.txt", identity.str());
    JournalKey base;
    base.trace_hash = trace_hash;
    base.points_hash = space_hash;
    base.num_points = space.size();
    const JournalKey key = sweep_identity(base, options.sweep);
    journal = std::make_unique<SweepJournal>(
        options.run_dir + "/sweep.journal", key);
    if (options.resume) {
      rounds_log->open([&](const std::string& record) {
        trajectory.push_back(
            decode_round(record, trajectory.size(), space.size()));
      });
      for (auto& [index, row] : journal->load()) {
        // The journal stores metrics only; re-decode the design point so
        // loaded rows train the surrogate exactly like fresh ones.
        row.point = space[index];
        labeled.emplace(index, std::move(row));
      }
    }
  }

  const auto train = [&]() {
    Surrogate surrogate =
        train_surrogate(options, x_scaler, metric_idx, labeled);
    if (fit_hook) fit_hook(surrogate, labeled.size());
    return surrogate;
  };

  // --- the loop ----------------------------------------------------------
  ExplorerResult result;
  result.space_size = space.size();

  const std::size_t budget = std::min(options.simulation_budget, space.size());

  const auto total_acquired = [&trajectory]() {
    std::size_t total = 0;
    for (const auto& round : trajectory) total += round.size();
    return total;
  };

  // Running best, fed only by rounds completed so far — a resumed run
  // preloads the whole journal into `labeled`, so scanning the map here
  // would let replayed rounds peek at later rounds' results.
  double best_value = 0.0;
  bool have_best = false;
  const auto fold_round_into_best = [&](const std::vector<std::size_t>& batch) {
    for (const std::size_t index : batch) {
      const auto it = labeled.find(index);
      if (it == labeled.end() || !it->second.ok()) continue;
      const double v = metric_value(it->second, metric_idx);
      if (!have_best ||
          (direction == Direction::kMinimize ? v < best_value
                                             : v > best_value)) {
        best_value = v;
        have_best = true;
      }
    }
  };

  const auto simulate_round =
      [&](const std::vector<std::size_t>& batch) -> std::size_t {
    std::vector<std::size_t> missing;
    for (const std::size_t index : batch) {
      if (!labeled.contains(index)) missing.push_back(index);
    }
    if (missing.empty()) return 0;
    std::vector<DesignPoint> points(missing.size());
    for (std::size_t i = 0; i < missing.size(); ++i) {
      points[i] = space[missing[i]];
    }
    SweepOptions sweep = options.sweep;
    sweep.checkpoint_path.clear();
    sweep.resume = false;
    if (journal) {
      // Journal rows under their GLOBAL space indices as they complete,
      // so a kill mid-batch loses only in-flight points.
      sweep.row_sink = [&](std::size_t local, const SweepRow& row) {
        journal->record(missing[local], row);
      };
    }
    std::vector<SweepRow> rows = run_sweep(points, trace, sweep);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (rows[i].outcome == PointOutcome::kSkipped) continue;
      labeled.emplace(missing[i], std::move(rows[i]));
    }
    return missing.size();
  };

  std::size_t round_idx = 0;
  StreamStats stream_stats;
  while (true) {
    std::vector<std::size_t> batch;
    if (round_idx < trajectory.size()) {
      batch = trajectory[round_idx];  // replaying a journaled round
    } else {
      const std::size_t acquired_so_far = total_acquired();
      if (round_idx > options.max_rounds) break;
      if (acquired_so_far >= budget) break;
      const std::size_t want = round_idx == 0
                                   ? std::min(options.initial_samples, budget)
                                   : std::min(options.batch_size,
                                              budget - acquired_so_far);
      if (round_idx == 0) {
        // Deterministic seed sample: distinct draws from the run seed.
        Rng rng(options.seed);
        std::set<std::size_t> seen;
        while (batch.size() < want) {
          const std::size_t index = rng.next_below(space.size());
          if (seen.insert(index).second) batch.push_back(index);
        }
      } else {
        const Surrogate surrogate = train();
        // The closing round (last one the budget or round cap admits)
        // optionally turns greedy: simulate the predicted winners so
        // the final ranking rests on observed values.
        const bool last_round = round_idx == options.max_rounds ||
                                acquired_so_far + want >= budget;
        const Acquisition acquisition =
            options.exploit_final_round && last_round
                ? Acquisition::kBestPredicted
                : options.acquisition;
        const BlockScorer scorer =
            make_acquisition_scorer(surrogate, acquisition);
        std::vector<std::size_t> skip;
        for (const auto& round : trajectory) {
          skip.insert(skip.end(), round.begin(), round.end());
        }
        std::sort(skip.begin(), skip.end());
        const std::vector<ScoredPoint> picks = stream_score_topk(
            space, scorer, want, skip, options.block_size,
            options.num_threads, &stream_stats);
        for (const ScoredPoint& pick : picks) batch.push_back(pick.index);
      }
      if (batch.empty()) break;
      trajectory.push_back(batch);
      if (rounds_log) {
        // Acquisition is journaled BEFORE its simulations run: a kill
        // anywhere re-simulates the same points on resume.
        rounds_log->append(encode_round(round_idx, batch));
      }
    }

    ExplorerRound round;
    round.round = round_idx;
    round.acquired = batch;
    round.newly_simulated = simulate_round(batch);
    fold_round_into_best(batch);
    round.best_value = best_value;
    result.rounds.push_back(std::move(round));
    if (options.round_hook) options.round_hook(round_idx + 1);
    ++round_idx;
  }

  // --- final ranking -----------------------------------------------------
  const Surrogate surrogate = train();

  std::vector<std::size_t> skip;
  skip.reserve(labeled.size());
  for (const auto& [index, row] : labeled) skip.push_back(index);

  // Candidates in physical units: observed values for simulated points,
  // surrogate predictions for the best of the rest.
  std::vector<ScoredPoint> candidates;
  for (const auto& [index, row] : labeled) {
    if (!row.ok()) continue;
    candidates.push_back({index, metric_value(row, metric_idx)});
  }
  const BlockScorer mean_scorer =
      make_acquisition_scorer(surrogate, Acquisition::kBestPredicted);
  const std::vector<ScoredPoint> predicted =
      stream_score_topk(space, mean_scorer, options.top_k, skip,
                        options.block_size, options.num_threads,
                        &stream_stats);
  for (const ScoredPoint& p : predicted) {
    const double scaled =
        direction == Direction::kMinimize ? -p.score : p.score;
    candidates.push_back({p.index, surrogate.to_physical(scaled)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [direction](const ScoredPoint& a, const ScoredPoint& b) {
              if (a.score != b.score) {
                return direction == Direction::kMinimize ? a.score < b.score
                                                         : a.score > b.score;
              }
              return a.index < b.index;
            });
  if (candidates.size() > options.top_k) candidates.resize(options.top_k);
  result.top = std::move(candidates);

  // --- labeled rows + Pareto fronts --------------------------------------
  for (auto& [index, row] : labeled) {
    result.labeled.emplace_back(index, row);
  }
  std::vector<std::pair<std::string, std::string>> pairs =
      options.pareto_pairs;
  if (pairs.empty()) {
    pairs = {{"power_w", "total_latency_cycles"}, {"power_w", "bandwidth_mbs"}};
  }
  std::vector<std::size_t> ok_indices;
  std::vector<SweepRow> ok_rows;
  for (std::size_t i = 0; i < result.labeled.size(); ++i) {
    if (result.labeled[i].second.ok()) {
      ok_indices.push_back(i);
      ok_rows.push_back(result.labeled[i].second);
    }
  }
  for (const auto& [metric_a, metric_b] : pairs) {
    ParetoFrontPair front;
    front.metric_a = metric_a;
    front.metric_b = metric_b;
    const std::vector<Objective> objectives = {Objective(metric_a),
                                               Objective(metric_b)};
    for (const std::size_t i : pareto_front(ok_rows, objectives)) {
      front.entries.push_back(ok_indices[i]);
    }
    result.fronts.push_back(std::move(front));
  }
  result.stream = stream_stats;
  return result;
}

}  // namespace

ExplorerResult run_explorer(const LazySpace& space,
                            std::span<const cpusim::MemoryEvent> trace,
                            const ExplorerOptions& options) {
  return explore(space, trace, options, {});
}

LearningCurve run_learning_curve(const LazySpace& pool,
                                 std::span<const cpusim::MemoryEvent> trace,
                                 std::span<const SweepRow> holdout,
                                 ExplorerOptions options) {
  const std::size_t metric_idx = metric_index(options.metric);
  const std::size_t width = DesignPoint::feature_names().size();
  std::vector<const SweepRow*> ok_rows;
  for (const SweepRow& row : holdout) {
    if (row.ok()) ok_rows.push_back(&row);
  }
  GMD_REQUIRE(!ok_rows.empty(), "learning curve needs a simulated holdout");
  ml::Matrix holdout_x(ok_rows.size(), width);
  std::vector<double> holdout_y(ok_rows.size());
  for (std::size_t r = 0; r < ok_rows.size(); ++r) {
    ok_rows[r]->point.write_features(holdout_x.row(r));
    holdout_y[r] = metric_value(*ok_rows[r], metric_idx);
  }

  options.exploit_final_round = false;
  options.max_rounds = pool.size();
  options.run_dir.clear();
  options.resume = false;

  LearningCurve result;
  const ExplorerResult run = explore(
      pool, trace, options, [&](const Surrogate& s, std::size_t labeled) {
        std::vector<double> predicted;
        std::vector<double> unused;
        s.eval(s.x_scaler->transform(holdout_x), predicted, unused, false);
        for (double& v : predicted) v = s.to_physical(v);
        result.curve.push_back({labeled, ml::r2_score(holdout_y, predicted),
                                ml::mse(holdout_y, predicted)});
      });
  for (const ExplorerRound& round : run.rounds) {
    result.acquisition_order.insert(result.acquisition_order.end(),
                                    round.acquired.begin(),
                                    round.acquired.end());
  }
  return result;
}

std::vector<std::size_t> exhaustive_topk(std::span<const SweepRow> rows,
                                         const std::string& metric,
                                         std::size_t k) {
  const std::size_t metric_idx = metric_index(metric);
  const Direction direction = metric_direction(metric);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].ok()) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = metric_value(rows[a], metric_idx);
    const double vb = metric_value(rows[b], metric_idx);
    if (va != vb) {
      return direction == Direction::kMinimize ? va < vb : va > vb;
    }
    return a < b;
  });
  if (order.size() > k) order.resize(k);
  return order;
}

double topk_agreement(std::span<const std::size_t> picks,
                      std::span<const std::size_t> truth) {
  if (truth.empty()) return 1.0;
  const std::set<std::size_t> have(picks.begin(), picks.end());
  std::size_t hits = 0;
  for (const std::size_t index : truth) hits += have.contains(index);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace gmd::dse
