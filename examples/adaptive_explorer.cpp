/// \file adaptive_explorer.cpp
/// Closed-loop surrogate-guided design-space exploration: stream a
/// lazy (up to 10^6-point) space through the fitted surrogate, acquire
/// a batch per round, simulate only the acquired points, and emit the
/// final top-k recommendation plus Pareto fronts over everything
/// simulated.
///
/// Usage: adaptive_explorer [--workload bfs|dobfs|pagerank|cc|sssp|triangles]
///                          [--vertices N] [--space paper|reduced|million]
///                          [--metric NAME] [--model gp|rf]
///                          [--acquisition variance|ei|best|random]
///                          [--initial N] [--batch N] [--rounds N]
///                          [--budget N] [--top-k N] [--seed N]
///                          [--threads N] [--block N]
///                          [--run-dir DIR] [--resume]
///                          [--kill-after-round N]
///                          [--out-dir DIR] [--agreement]
///
/// With --run-dir every round's acquisition is journaled before its
/// simulations run, so `--run-dir DIR --resume` after a SIGKILL (or a
/// --kill-after-round N rehearsal, which _Exit(137)s once N rounds have
/// completed) replays the journal and lands on the bit-identical final
/// result — the CSVs under --out-dir match a never-killed run byte for
/// byte.
///
/// --agreement additionally sweeps the WHOLE space exhaustively (small
/// spaces only) and reports the fraction of the true top-k the explorer
/// recovered with its simulation budget.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"

namespace {

using namespace gmd;

dse::LazySpace build_space(const std::string& name) {
  if (name == "paper") return dse::LazySpace::paper();
  if (name == "reduced") return dse::LazySpace::reduced();
  if (name == "million") return dse::LazySpace(dse::LazySpace::million_axes());
  throw Error(ErrorCode::kConfig,
              "unknown space '" + name + "' (paper|reduced|million)");
}

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

}  // namespace

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("adaptive_explorer",
                "surrogate-guided closed-loop design-space exploration");
  cli.add_option("workload", "bfs",
                 "bfs | dobfs | pagerank | cc | sssp | triangles")
      .add_option("vertices", "256", "graph size")
      .add_option("space", "reduced",
                  "design space: paper (416) | reduced (96) | "
                  "million (lazy 10^6 grid)")
      .add_option("metric", "total_latency_cycles",
                  "target metric driving acquisition")
      .add_option("model", "gp", "surrogate family: gp | rf")
      .add_option("acquisition", "ei",
                  "acquisition: variance | ei | best | random")
      .add_option("initial", "32", "deterministic seed sample size")
      .add_option("batch", "16", "points acquired per round")
      .add_option("rounds", "8", "acquisition rounds after the seed")
      .add_option("budget", "128", "total simulations, seed included")
      .add_option("top-k", "10", "final recommendation size")
      .add_option("seed", "1", "run seed")
      .add_option("threads", "1", "scoring threads (0: hardware)")
      .add_option("block", "8192", "streaming block size in rows")
      .add_option("run-dir", "",
                  "journal directory enabling kill-and-resume")
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
  try {
    if (!cli.parse(argc, argv)) return 0;

    dse::WorkloadSpec spec;
    spec.graph_vertices = static_cast<std::uint32_t>(cli.get_int("vertices"));
    spec.workload = cli.get_string("workload");
    const auto trace = dse::generate_workload_trace(spec);

    const dse::LazySpace space = build_space(cli.get_string("space"));
    std::cout << "workload '" << spec.workload << "': " << trace.size()
              << " events; space '" << cli.get_string("space") << "': "
              << space.size() << " points\n";

    dse::ExplorerOptions options;
    options.metric = cli.get_string("metric");
    options.model = cli.get_string("model");
    options.acquisition = dse::parse_acquisition(cli.get_string("acquisition"));
    options.initial_samples = static_cast<std::size_t>(cli.get_int("initial"));
    options.batch_size = static_cast<std::size_t>(cli.get_int("batch"));
    options.max_rounds = static_cast<std::size_t>(cli.get_int("rounds"));
    options.simulation_budget =
        static_cast<std::size_t>(cli.get_int("budget"));
    options.top_k = static_cast<std::size_t>(cli.get_int("top-k"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
    options.block_size = static_cast<std::size_t>(cli.get_int("block"));
    options.run_dir = cli.get_string("run-dir");
    options.resume = cli.get_flag("resume");

    const std::size_t kill_after =
        static_cast<std::size_t>(cli.get_int("kill-after-round"));
    if (kill_after > 0) {
      GMD_REQUIRE(!options.run_dir.empty(),
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
      write_result_csv(out_dir + "/result.csv", space, result,
                       options.metric);
      write_front_csvs(out_dir, result);
      std::cout << "wrote result.csv and " << result.fronts.size()
                << " front CSVs to '" << out_dir << "'\n";
    }

    if (cli.get_flag("agreement")) {
      GMD_REQUIRE(space.size() <= 100000,
                  "--agreement sweeps the whole space; pick a small one");
      dse::SweepOptions sweep;
      const std::vector<dse::SweepRow> rows =
          dse::run_sweep(space.materialize(), trace, sweep);
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
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
