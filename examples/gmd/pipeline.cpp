/// \file pipeline.cpp
/// `gmd pipeline`: crash-safe run of the five-stage orchestrator
/// (cpusim -> pack -> sweep -> train -> recommend) over an output
/// directory, journaling every stage in manifest.txt so `--resume`
/// picks up exactly where a previous (possibly killed) run stopped.
///
///   gmd pipeline --out-dir run1                  # full run
///   gmd pipeline --out-dir run1 --resume         # all stages skip
///
/// The paper's full study is `--space paper --vertices 1024
/// --edge-factor 16`.  `--report PATH` additionally renders a markdown
/// study report from the run's sweep.csv, retraining the surrogates
/// exactly as the train stage does (so its scores are table1.txt's).
///
/// Fault injection for resilience testing (used by scripts/check.sh and
/// CI): `--kill-stage NAME` SIGKILL-exits the process right before that
/// stage runs; `--kill-after-points N` kills mid-sweep after N points
/// have started; `--fail-stage NAME` throws a typed error instead.  A
/// killed run resumed with `--resume` must produce artifacts
/// bit-identical to an uninterrupted run.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "flags.hpp"
#include "gmd/common/csv.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/report.hpp"
#include "gmd/pipeline/pipeline.hpp"
#include "verbs.hpp"

namespace gmd::cli {

namespace {
const std::vector<std::string> kPipelineSpaces = {"reduced", "paper"};
}  // namespace

int pipeline(int argc, char** argv) {
  CliParser cli("gmd pipeline",
                "crash-safe co-design pipeline with kill-and-resume");
  add_workload(cli, {.graph_vertices = 192, .edge_factor = 8});
  add_space(cli, kPipelineSpaces);
  add_sampling(cli, /*in_memory=*/false);
  cli.add_option("out-dir", "pipeline-out", "artifact + manifest directory")
      .add_option("threads", "0", "worker threads (0 = hardware)")
      .add_option("deadline-ms", "0",
                  "whole-pipeline wall budget in ms (0 = unlimited)")
      .add_option("stage-budget-ms", "0",
                  "per-stage wall budget in ms (0 = unlimited)")
      .add_option("kill-stage", "",
                  "fault injection: _Exit(137) right before this stage")
      .add_option("kill-after-points", "0",
                  "fault injection: _Exit(137) after N sweep points start")
      .add_option("fail-stage", "",
                  "fault injection: throw right before this stage")
      .add_option("sweep-processes", "0",
                  "worker PROCESSES for the sweep stage (0 = in-process; "
                  ">0 runs the lease-based distributed sweep, which "
                  "survives SIGKILLed workers)")
      .add_option("report", "",
                  "also write a markdown study report to this path")
      .add_flag("resume", "skip stages whose manifest entries verify")
      .add_flag("summary-only", "print only the one-line stage summary");
  if (!parse(cli, argc, argv)) return 0;

  const dse::WorkloadSpec spec = read_workload(cli);
  gmd::pipeline::PipelineOptions options;
  options.out_dir = cli.get_string("out-dir");
  options.graph_vertices = spec.graph_vertices;
  options.edge_factor = spec.edge_factor;
  options.workload = spec.workload;
  options.seed = spec.seed;
  options.num_threads = cli.get_count("threads");
  options.resume = cli.get_flag("resume");
  options.design_points = read_space(cli, kPipelineSpaces).materialize();
  // Survive injected per-point faults instead of aborting the sweep.
  options.sweep.failure_policy = dse::FailurePolicy::kRetry;
  read_sampling(cli, /*in_memory=*/false, options.sweep);
  options.sweep_processes = cli.get_count("sweep-processes");

  const auto stage_budget = get_ms(cli, "stage-budget-ms");
  options.budgets.cpusim = stage_budget;
  options.budgets.pack = stage_budget;
  options.budgets.sweep = stage_budget;
  options.budgets.train = stage_budget;
  options.budgets.recommend = stage_budget;

  const auto deadline_ms = get_ms(cli, "deadline-ms");
  std::unique_ptr<Deadline> pipeline_deadline;
  if (deadline_ms.count() > 0) {
    pipeline_deadline =
        std::make_unique<Deadline>(std::chrono::nanoseconds(deadline_ms));
    options.cancel = pipeline_deadline.get();
  }

  // Deterministic fault injection.  _Exit skips every destructor and
  // atexit handler — the closest portable stand-in for SIGKILL, so
  // no writer gets a chance to flush or rename on the way down.
  const std::string kill_stage = cli.get_string("kill-stage");
  const std::string fail_stage = cli.get_string("fail-stage");
  if (!kill_stage.empty() || !fail_stage.empty()) {
    options.stage_hook = [kill_stage, fail_stage](const std::string& name) {
      if (name == kill_stage) {
        std::cerr << "[fault] killing before stage '" << name << "'\n";
        std::_Exit(137);
      }
      if (name == fail_stage) {
        throw Error(ErrorCode::kSimulation,
                    "injected failure before stage '" + name + "'");
      }
    };
  }
  const std::size_t kill_after_points = cli.get_count("kill-after-points");
  auto points_started = std::make_shared<std::atomic<std::size_t>>(0);
  if (kill_after_points > 0) {
    options.sweep_fault_hook = [kill_after_points, points_started](
                                   std::size_t, std::uint32_t) {
      if (points_started->fetch_add(1) + 1 >= kill_after_points) {
        std::cerr << "[fault] killing after " << kill_after_points
                  << " sweep points started\n";
        std::_Exit(137);
      }
    };
  }

  const gmd::pipeline::PipelineResult result =
      gmd::pipeline::run_pipeline(options);
  const std::string report_path = cli.get_string("report");
  if (!report_path.empty()) {
    const std::vector<dse::SweepRow> rows =
        dse::table_to_sweep(CsvTable::load(result.sweep_csv));
    dse::SurrogateOptions surrogate = options.surrogate;
    surrogate.skip_failed_metrics = true;  // as the train stage runs
    dse::save_markdown_report(report_path, rows,
                              dse::SurrogateSuite::train(rows, surrogate));
  }
  std::cout << result.summary() << "\n";
  if (!cli.get_flag("summary-only")) {
    std::cout << "artifacts:\n"
              << "  trace:           " << result.trace_path << "\n"
              << "  store:           " << result.store_path << "\n"
              << "  sweep csv:       " << result.sweep_csv << "\n"
              << "  table I:         " << result.table1_path << "\n"
              << "  recommendations: " << result.recommendations_path
              << "\n";
    if (!report_path.empty()) {
      std::cout << "  study report:    " << report_path << "\n";
    }
  }
  return 0;
}

}  // namespace gmd::cli
