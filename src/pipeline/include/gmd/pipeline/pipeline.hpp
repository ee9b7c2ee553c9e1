#pragma once

/// \file pipeline.hpp
/// Crash-safe end-to-end orchestrator for the paper's workflow, run as
/// five file-backed stages over one output directory:
///
///   cpusim    — graph generation + workload run -> trace.gem5.txt
///   pack      — gem5 text -> compressed GMDT store (trace.gmdt)
///   sweep     — memory-simulation sweep -> sweep.csv (+ sweep.journal)
///   train     — surrogate suite -> table1.txt + models/<metric>.model
///   recommend — best-point report -> recommendations.txt
///
/// Every artifact is published with a temp-then-rename write, each
/// completed stage is appended to manifest.txt keyed on a content hash
/// of its inputs, and the sweep additionally journals per-point rows.
/// Kill the process at any instant and re-run with resume=true: stages
/// whose inputs and outputs still verify are skipped, the sweep resumes
/// from its journal, and the final artifacts are bit-identical to an
/// uninterrupted run.  Per-stage wall budgets and a pipeline-wide
/// cancellation token bound a hung stage (cpusim polls per memory
/// access, the sweep per point, training per tree / boosting stage).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gmd/common/deadline.hpp"
#include "gmd/dse/design_point.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::pipeline {

/// The five stage names, in execution order.
const std::vector<std::string>& stage_names();

/// Per-stage wall budgets; 0 = unlimited.  A budget bounds the stage
/// body cooperatively — the stage fails with Error(kTimeout) and the
/// pipeline aborts (already-completed stages stay resumable).
struct StageBudgets {
  std::chrono::milliseconds cpusim{0};
  std::chrono::milliseconds pack{0};
  std::chrono::milliseconds sweep{0};
  std::chrono::milliseconds train{0};
  std::chrono::milliseconds recommend{0};
};

struct PipelineOptions {
  /// All artifacts (and manifest.txt) live here.
  std::string out_dir = "pipeline-out";

  // --- workload (cpusim stage) ----------------------------------------
  std::uint32_t graph_vertices = 256;
  unsigned edge_factor = 8;
  std::string workload = "bfs";
  std::uint64_t seed = 1;

  // --- sweep stage -----------------------------------------------------
  std::vector<dse::DesignPoint> design_points;  ///< Empty: paper space.
  /// Fault-tolerance knobs for the sweep (failure policy, retries,
  /// per-point budgets).  checkpoint_path/resume/cancel/num_threads/
  /// log_progress are managed by the pipeline and overridden.
  dse::SweepOptions sweep;
  /// Number of worker PROCESSES for the sweep stage.  0 (default) runs
  /// the sweep in-process.  >0 delegates to the distributed runner
  /// (dse::run_sweep_distributed) over <out_dir>/sweep-shards: workers
  /// share the GMDT store mapping and checkpoint per-worker journals,
  /// and the stage survives SIGKILLed workers.  Without `resume` the
  /// shard directory is removed first, so the sweep starts fresh, as
  /// the in-process one does.  Like the thread count,
  /// this only changes where the work runs, never the labels, so it is
  /// NOT part of the stage identity — a run started in-process can
  /// resume distributed and vice versa.
  std::size_t sweep_processes = 0;

  // --- train stage -----------------------------------------------------
  /// deadline and skip_failed_metrics are managed by the pipeline: the
  /// stage budget is wired in and degraded mode is on (a metric whose
  /// training fails is recorded and skipped, not fatal).
  dse::SurrogateOptions surrogate;

  std::size_t num_threads = 0;  ///< 0: hardware concurrency.
  bool log_progress = false;

  // --- resilience ------------------------------------------------------
  /// Skip stages whose manifest record and artifacts still verify;
  /// resume the sweep from its journal.  Off: every stage re-runs (the
  /// manifest is still written for a later resume).
  bool resume = false;
  StageBudgets budgets;
  /// Pipeline-wide cancellation token, consulted by every stage token.
  /// Non-owning; must outlive run_pipeline.
  Deadline* cancel = nullptr;
  /// Deterministic fault injection for tests: called with the stage
  /// name just before the stage body runs.  Throwing aborts the
  /// pipeline exactly like the stage failing.
  std::function<void(const std::string&)> stage_hook;
  /// Forwarded to SweepOptions::fault_hook (per point index + attempt);
  /// lets tests kill or fail mid-sweep deterministically.
  std::function<void(std::size_t, std::uint32_t)> sweep_fault_hook;
};

/// Outcome of one stage in this invocation.
struct StageStatus {
  std::string name;
  bool skipped = false;  ///< Resume hit: inputs and artifacts verified.
  double seconds = 0.0;  ///< Wall time of the stage body (0 if skipped).
};

struct PipelineResult {
  std::vector<StageStatus> stages;

  // Key artifact paths (inside out_dir).
  std::string trace_path;
  std::string store_path;
  std::string sweep_csv;
  std::string table1_path;
  std::string recommendations_path;

  dse::SweepHealth health;  ///< Rebuilt from sweep.csv when skipped.
  std::size_t trained_metrics = 0;
  std::size_t skipped_metrics = 0;     ///< Degraded-mode skips in train.
  std::size_t stale_temps_removed = 0; ///< Crash leftovers swept at start.

  /// One-line-per-stage summary for logs.
  std::string summary() const;
};

/// Runs (or resumes) the pipeline.  Deterministic for a fixed
/// configuration: an interrupted run resumed to completion produces
/// artifacts bit-identical to an uninterrupted one.
PipelineResult run_pipeline(const PipelineOptions& options);

}  // namespace gmd::pipeline
