/// \file explore.cpp
/// `gmd explore` and `gmd learning-curve`: the label-efficient DSE of
/// the paper's §V future work, both on the one explorer loop.
///
/// `gmd explore` streams a lazy (up to 10^6-point) space through the
/// fitted surrogate, acquires a batch per round, simulates only the
/// acquired points, and emits the final top-k recommendation plus Pareto
/// fronts over everything simulated.  With --run-dir every round's
/// acquisition is journaled before its simulations run, so
/// `--run-dir DIR --resume` after a SIGKILL (or a --kill-after-round N
/// rehearsal, which _Exit(137)s once N rounds have completed) replays
/// the journal and lands on the bit-identical final result: the CSVs
/// under --out-dir match a never-killed run byte for byte.  --agreement
/// additionally sweeps the WHOLE space exhaustively (small spaces only)
/// and reports the fraction of the true top-k the explorer recovered.
///
/// `gmd learning-curve` compares GP-variance active learning against
/// random sampling at every label budget, over a pool of the reduced
/// grid; only the holdout is simulated up front.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <utility>
#include <vector>

#include "flags.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "verbs.hpp"

namespace gmd::cli {

namespace {

std::size_t metric_column(const std::string& metric) {
  const auto& names = memsim::MemoryMetrics::metric_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == metric) return i;
  }
  throw Error(ErrorCode::kConfig, "unknown metric '" + metric + "'");
}

/// CSV writers print doubles at round-trip precision so a resumed run's
/// files are byte-identical to an uninterrupted one.
void open_csv(std::ofstream& out, const std::string& path) {
  out.open(path);
  GMD_REQUIRE(out.good(), "cannot write '" << path << "'");
  out << std::setprecision(17);
}

void write_result_csv(const std::string& path, const dse::LazySpace& space,
                      const dse::ExplorerResult& result,
                      const std::string& metric) {
  std::ofstream out;
  open_csv(out, path);
  std::vector<std::size_t> labeled_indices;  // already sorted ascending
  labeled_indices.reserve(result.labeled.size());
  for (const auto& [index, row] : result.labeled) {
    labeled_indices.push_back(index);
  }
  out << "rank,space_index,id,source," << metric << "\n";
  for (std::size_t rank = 0; rank < result.top.size(); ++rank) {
    const dse::ScoredPoint& pick = result.top[rank];
    const bool observed = std::binary_search(
        labeled_indices.begin(), labeled_indices.end(), pick.index);
    out << (rank + 1) << "," << pick.index << "," << space[pick.index].id()
        << "," << (observed ? "observed" : "predicted") << "," << pick.score
        << "\n";
  }
}

void write_front_csvs(const std::string& dir,
                      const dse::ExplorerResult& result) {
  for (const dse::ParetoFrontPair& front : result.fronts) {
    const std::size_t col_a = metric_column(front.metric_a);
    const std::size_t col_b = metric_column(front.metric_b);
    std::ofstream out;
    open_csv(out,
             dir + "/front_" + front.metric_a + "__" + front.metric_b +
                 ".csv");
    out << "space_index,id," << front.metric_a << "," << front.metric_b
        << "\n";
    for (const std::size_t entry : front.entries) {
      const auto& [index, row] = result.labeled[entry];
      const std::vector<double> values = row.metrics.metric_values();
      out << index << "," << row.point.id() << "," << values[col_a] << ","
          << values[col_b] << "\n";
    }
  }
}

const std::vector<std::string> kExploreSpaces = {"reduced", "paper",
                                                "million"};

}  // namespace

int explore(int argc, char** argv) {
  const dse::ExplorerOptions defaults;
  CliParser cli("gmd explore",
                "surrogate-guided closed-loop design-space exploration");
  add_workload(cli, {.graph_vertices = 256});
  add_space(cli, kExploreSpaces);
  add_acquisition(cli, defaults);
  cli.add_option("model", defaults.model, "surrogate family: gp | rf")
      .add_option("acquisition", "ei",
                  "acquisition: variance | ei | best | random")
      .add_option("rounds", std::to_string(defaults.max_rounds),
                  "acquisition rounds after the seed")
      .add_option("top-k", std::to_string(defaults.top_k),
                  "final recommendation size")
      .add_option("threads", std::to_string(defaults.num_threads),
                  "scoring threads (0: hardware)")
      .add_option("block", std::to_string(defaults.block_size),
                  "streaming block size in rows")
      .add_option("run-dir", "", "journal directory enabling kill-and-resume")
      .add_flag("resume", "resume a killed run from --run-dir")
      .add_option("kill-after-round", "0",
                  "fault injection: _Exit(137) once this many rounds "
                  "have completed (0: never)")
      .add_option("out-dir", "",
                  "write result.csv and front_*.csv here "
                  "(defaults to --run-dir)")
      .add_flag("agreement",
                "also sweep the space exhaustively and report top-k "
                "agreement (small spaces only)");
  if (!parse(cli, argc, argv)) return 0;

  // --seed seeds the acquisition loop; the graph keeps the default
  // workload seed, so one trace serves every run seed.
  dse::WorkloadSpec spec = read_workload(cli);
  const std::uint64_t run_seed = spec.seed;
  spec.seed = dse::WorkloadSpec{}.seed;
  const auto trace = dse::generate_workload_trace(spec);
  const dse::LazySpace space = read_space(cli, kExploreSpaces);
  std::cout << "workload '" << spec.workload << "': " << trace.size()
            << " events; space '" << cli.get_string("space") << "': "
            << space.size() << " points\n";

  dse::ExplorerOptions options;
  read_acquisition(cli, options);
  options.model = cli.get_string("model");
  options.acquisition = dse::parse_acquisition(cli.get_string("acquisition"));
  options.max_rounds = cli.get_count("rounds");
  options.top_k = cli.get_count("top-k");
  options.seed = run_seed;
  options.num_threads = cli.get_count("threads");
  options.block_size = cli.get_count("block");
  options.run_dir = cli.get_string("run-dir");
  options.resume = cli.get_flag("resume");

  const std::size_t kill_after = cli.get_count("kill-after-round");
  if (kill_after > 0) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, !options.run_dir.empty(),
                   "--kill-after-round needs --run-dir to resume from");
    options.round_hook = [kill_after](std::size_t completed) {
      if (completed >= kill_after) {
        std::cout << "killed after round " << completed << "\n"
                  << std::flush;
        std::_Exit(137);
      }
    };
  }

  const dse::ExplorerResult result = run_explorer(space, trace, options);

  std::cout << "\nrounds:\n";
  for (const dse::ExplorerRound& round : result.rounds) {
    std::cout << "  round " << round.round << ": acquired "
              << round.acquired.size() << ", simulated "
              << round.newly_simulated << ", best " << options.metric
              << " = " << round.best_value << "\n";
  }
  std::cout << "simulated " << result.labeled.size() << " / "
            << result.space_size << " points; streamed "
            << result.stream.scored << " candidate scores in "
            << result.stream.blocks << " blocks\n";

  std::cout << "\ntop-" << result.top.size() << " by " << options.metric
            << ":\n";
  for (std::size_t rank = 0; rank < result.top.size(); ++rank) {
    const dse::ScoredPoint& pick = result.top[rank];
    std::cout << "  " << std::setw(2) << (rank + 1) << ". "
              << space[pick.index].id() << "  " << pick.score << "\n";
  }
  for (const dse::ParetoFrontPair& front : result.fronts) {
    std::cout << "front " << front.metric_a << " vs " << front.metric_b
              << ": " << front.entries.size() << " points\n";
  }

  std::string out_dir = cli.get_string("out-dir");
  if (out_dir.empty()) out_dir = options.run_dir;
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    write_result_csv(out_dir + "/result.csv", space, result, options.metric);
    write_front_csvs(out_dir, result);
    std::cout << "wrote result.csv and " << result.fronts.size()
              << " front CSVs to '" << out_dir << "'\n";
  }

  if (cli.get_flag("agreement")) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, space.size() <= 100000,
                   "--agreement sweeps the whole space; pick a small one");
    const std::vector<dse::SweepRow> rows =
        dse::run_sweep(space.materialize(), trace, dse::SweepOptions{});
    const std::vector<std::size_t> truth =
        dse::exhaustive_topk(rows, options.metric, options.top_k);
    std::vector<std::size_t> picks;
    for (const dse::ScoredPoint& pick : result.top) {
      picks.push_back(pick.index);
    }
    const double agreement = dse::topk_agreement(picks, truth);
    std::cout << "\nexhaustive sweep: " << rows.size()
              << " simulations; top-" << options.top_k
              << " agreement = " << agreement << "\n";
    GMD_REQUIRE(agreement >= 0.9,
                "explorer missed the exhaustive top-" << options.top_k
                << " (agreement " << agreement << " < 0.9)");
  }
  return 0;
}

int learning_curve(int argc, char** argv) {
  dse::ExplorerOptions defaults;
  defaults.initial_samples = 8;
  defaults.batch_size = 4;
  defaults.simulation_budget = 60;
  CliParser cli("gmd learning-curve",
                "active-learning vs random-sampling DSE comparison");
  add_workload(cli, {.graph_vertices = 256});
  add_acquisition(cli, defaults);
  if (!parse(cli, argc, argv)) return 0;

  const dse::WorkloadSpec spec = read_workload(cli);
  const auto trace = dse::generate_workload_trace(spec);

  // Every fourth reduced-grid point is the holdout; the rest is the
  // pool the learners draw from.
  const std::vector<dse::DesignPoint> points = dse::reduced_design_space();
  std::vector<dse::DesignPoint> pool_points, holdout_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    (i % 4 == 0 ? holdout_points : pool_points).push_back(points[i]);
  }
  const dse::LazySpace pool = dse::LazySpace::of(std::move(pool_points));
  const auto holdout = dse::run_sweep(holdout_points, trace);
  std::cout << "pool: " << pool.size() << " configurations, holdout: "
            << holdout.size() << "\n\n";

  dse::ExplorerOptions options;
  read_acquisition(cli, options);
  options.acquisition = dse::Acquisition::kMaxVariance;
  options.seed = spec.seed;

  const auto active = dse::run_learning_curve(pool, trace, holdout, options);
  options.acquisition = dse::Acquisition::kRandom;
  const auto random = dse::run_learning_curve(pool, trace, holdout, options);

  std::cout << "metric: " << options.metric << "\n";
  std::cout << std::setw(8) << "labels" << std::setw(14) << "active R2"
            << std::setw(14) << "random R2" << "\n";
  for (std::size_t i = 0; i < active.curve.size(); ++i) {
    std::cout << std::setw(8) << active.curve[i].labels_used << std::fixed
              << std::setprecision(4) << std::setw(14)
              << active.curve[i].r2_on_holdout << std::setw(14)
              << (i < random.curve.size() ? random.curve[i].r2_on_holdout
                                          : 0.0)
              << "\n";
  }
  return 0;
}

}  // namespace gmd::cli
