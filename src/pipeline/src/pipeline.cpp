#include "gmd/pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/csv.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/distributed.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/ml/serialize.hpp"
#include "gmd/pipeline/manifest.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::pipeline {

namespace {

namespace fs = std::filesystem;

void mix_string(Fnv1a& h, const std::string& s) {
  h.mix(s.size());
  h.mix_bytes(s.data(), s.size());
}

/// Identity of the cpusim stage: the workload spec.
std::uint64_t cpusim_inputs_hash(const dse::WorkloadSpec& spec) {
  Fnv1a h;
  h.mix(spec.graph_vertices);
  h.mix(spec.edge_factor);
  mix_string(h, spec.workload);
  h.mix(spec.seed);
  return h.state;
}

/// Identity of the train stage beyond the sweep CSV: every surrogate
/// option that changes what gets trained.
std::uint64_t surrogate_config_hash(const dse::SurrogateOptions& options) {
  Fnv1a h;
  h.mix(options.models.size());
  for (const std::string& model : options.models) mix_string(h, model);
  h.mix_double(options.test_fraction);
  h.mix(options.seed);
  return h.state;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {"cpusim", "pack", "sweep",
                                                 "train", "recommend"};
  return names;
}

std::string PipelineResult::summary() const {
  std::ostringstream os;
  os << "pipeline:";
  for (const StageStatus& stage : stages) {
    os << ' ' << stage.name << '=';
    if (stage.skipped) {
      os << "skipped";
    } else {
      os << "ran(" << stage.seconds << "s)";
    }
  }
  os << "; sweep " << health.summary();
  os << "; " << trained_metrics << " metrics trained";
  if (skipped_metrics > 0) os << " (" << skipped_metrics << " skipped)";
  return os.str();
}

PipelineResult run_pipeline(const PipelineOptions& options) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !options.out_dir.empty(),
                 "pipeline out_dir must not be empty");
  fs::create_directories(options.out_dir);

  PipelineResult result;
  // Crash leftovers from a previous run: any *.tmp under out_dir was an
  // uncommitted artifact; readers never look at them, but sweeping them
  // keeps the directory a faithful list of published artifacts.
  result.stale_temps_removed = remove_stale_temp_files(options.out_dir);
  if (result.stale_temps_removed > 0) {
    GMD_LOG_WARN << "pipeline: removed " << result.stale_temps_removed
                 << " stale temp file(s) left by a previous crash under '"
                 << options.out_dir << "'";
  }

  const auto path_in = [&](const std::string& relpath) {
    return (fs::path(options.out_dir) / relpath).string();
  };
  result.trace_path = path_in("trace.gem5.txt");
  result.store_path = path_in("trace.gmdt");
  result.sweep_csv = path_in("sweep.csv");
  result.table1_path = path_in("table1.txt");
  result.recommendations_path = path_in("recommendations.txt");

  Manifest manifest(path_in("manifest.txt"));
  if (options.resume) manifest.load();

  const std::vector<dse::DesignPoint> points =
      options.design_points.empty() ? dse::paper_design_space()
                                    : options.design_points;

  // Runs one stage: skip when the manifest proves inputs and artifacts
  // are unchanged (resume only), otherwise execute the body under a
  // stage deadline and record the artifacts it returns.  The body
  // receives a nullable Deadline: the stage budget chained to the
  // pipeline-wide cancel token, or the bare token when unbudgeted.
  const auto run_stage =
      [&](const std::string& name, std::uint64_t inputs_hash,
          std::chrono::milliseconds budget,
          const std::function<std::vector<std::string>(Deadline*)>& body) {
        if (options.resume && manifest.stage_valid(name, inputs_hash)) {
          GMD_LOG_INFO << "pipeline: stage '" << name
                       << "' is up to date (inputs and artifacts verified); "
                          "skipping";
          result.stages.push_back(StageStatus{name, /*skipped=*/true, 0.0});
          return;
        }
        if (options.stage_hook) options.stage_hook(name);
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::string> artifacts;
        if (budget.count() > 0) {
          Deadline stage_deadline(std::chrono::nanoseconds(budget),
                                  options.cancel);
          artifacts = body(&stage_deadline);
        } else {
          artifacts = body(options.cancel);
        }
        manifest.record_stage(name, inputs_hash, artifacts);
        StageStatus status{name, /*skipped=*/false, seconds_since(start)};
        GMD_LOG_INFO << "pipeline: stage '" << name << "' completed in "
                     << status.seconds << "s (" << artifacts.size()
                     << " artifact(s))";
        result.stages.push_back(std::move(status));
      };

  // --- cpusim: workload run -> gem5 text trace -------------------------
  const dse::WorkloadSpec spec{options.graph_vertices, options.edge_factor,
                               options.workload, options.seed};
  run_stage(
      "cpusim", cpusim_inputs_hash(spec), options.budgets.cpusim,
      [&](Deadline* deadline) -> std::vector<std::string> {
        const std::vector<cpusim::MemoryEvent> events =
            dse::generate_workload_trace(spec, nullptr, nullptr, deadline);
        atomic_write_file(result.trace_path, [&events](std::ostream& os) {
          trace::Gem5TraceWriter writer(os);
          for (const cpusim::MemoryEvent& event : events) {
            writer.on_event(event);
          }
        });
        return {"trace.gem5.txt"};
      });

  // --- pack: gem5 text -> GMDT store -----------------------------------
  run_stage("pack", fnv1a_file(result.trace_path), options.budgets.pack,
            [&](Deadline*) -> std::vector<std::string> {
              trace::ConvertOptions convert_options;
              convert_options.num_threads = options.num_threads;
              const trace::ConvertStats stats = trace::convert_gem5_to_gmdt(
                  result.trace_path, result.store_path, convert_options);
              GMD_LOG_INFO << "pipeline: packed " << stats.events_out
                           << " events into " << stats.chunks << " chunks";
              return {"trace.gmdt"};
            });

  // --- sweep: GMDT store x design points -> labeled CSV ----------------
  {
    const tracestore::TraceStoreReader store(result.store_path);
    Fnv1a h;
    h.mix(store.content_checksum());
    h.mix(dse::points_checksum(points));
    // The sampling geometry changes the labels, so it is part of the
    // stage identity; thread and process counts are not (parallel
    // sweeps are bit-identical to serial ones).
    h.mix_double(options.sweep.sample_fraction);
    if (options.sweep.sample_fraction < 1.0) {
      h.mix(options.sweep.sample_seed);
      h.mix(options.sweep.sample_warmup_chunks);
      h.mix(options.sweep.sampling_chunk_events);
    }
    run_stage(
        "sweep", h.state, options.budgets.sweep,
        [&](Deadline* deadline) -> std::vector<std::string> {
          dse::SweepOptions sweep_options = options.sweep;
          sweep_options.num_threads = options.num_threads;
          sweep_options.log_progress = options.log_progress;
          sweep_options.cancel = deadline;
          sweep_options.checkpoint_path = path_in("sweep.journal");
          sweep_options.resume = options.resume;
          if (options.sweep_fault_hook) {
            sweep_options.fault_hook = options.sweep_fault_hook;
          }
          std::vector<dse::SweepRow> rows;
          if (options.sweep_processes > 0) {
            // Distributed execution: per-worker journals live under the
            // shard run directory, so the single-process journal path
            // is cleared; rows (and the resulting CSV) are bit-identical
            // either way, which is why sweep_processes is not part of
            // the stage identity.
            sweep_options.checkpoint_path.clear();
            sweep_options.fault_hook = nullptr;  // not fork-transportable
            // The runner adopts any journals it finds under its run
            // directory, so a fresh (non-resume) run must not see them.
            const std::string run_dir = path_in("sweep-shards");
            if (!options.resume) fs::remove_all(run_dir);
            dse::DistributedSweepOptions dist;
            dist.num_workers = options.sweep_processes;
            dist.cancel = deadline;
            rows = dse::run_sweep_distributed(points, store, run_dir,
                                              sweep_options, dist);
          } else {
            rows = dse::run_sweep(points, store, sweep_options);
          }
          result.health = dse::summarize_health(rows);
          GMD_REQUIRE_AS(ErrorCode::kSimulation, result.health.ok > 0,
                         "every sweep point failed ("
                             << result.health.summary() << ")");
          std::vector<dse::SweepRow> ok_rows;
          ok_rows.reserve(rows.size());
          for (const dse::SweepRow& row : rows) {
            if (row.ok()) ok_rows.push_back(row);
          }
          dse::sweep_to_table(ok_rows).save(result.sweep_csv);
          return {"sweep.csv"};
        });
  }

  // Downstream stages always read rows back from sweep.csv — never from
  // in-memory sweep results — so a fresh run and a resumed run train on
  // byte-identical inputs.
  const auto load_rows = [&]() {
    return dse::table_to_sweep(CsvTable::load(result.sweep_csv));
  };
  if (result.health.total == 0) {
    // Sweep was skipped on resume; rebuild health from the published
    // CSV (which holds only ok rows by construction).
    result.health = dse::summarize_health(load_rows());
  }

  // --- train: sweep CSV -> Table I + deployed models -------------------
  {
    Fnv1a h;
    h.mix(fnv1a_file(result.sweep_csv));
    h.mix(surrogate_config_hash(options.surrogate));
    run_stage(
        "train", h.state, options.budgets.train,
        [&](Deadline* deadline) -> std::vector<std::string> {
          const std::vector<dse::SweepRow> rows = load_rows();
          dse::SurrogateOptions surrogate_options = options.surrogate;
          surrogate_options.deadline = deadline;
          surrogate_options.skip_failed_metrics = true;
          const dse::SurrogateSuite suite =
              dse::SurrogateSuite::train(rows, surrogate_options);
          result.skipped_metrics = suite.skipped().size();

          atomic_write_text(result.table1_path, suite.format_table1());
          std::vector<std::string> artifacts = {"table1.txt"};

          fs::create_directories(path_in("models"));
          for (const std::string& metric : dse::target_metric_names()) {
            const bool skipped = std::any_of(
                suite.skipped().begin(), suite.skipped().end(),
                [&metric](const dse::SurrogateSuite::SkippedMetric& s) {
                  return s.metric == metric;
                });
            if (skipped) continue;
            const std::string best = suite.best_model(metric).model;
            const dse::SurrogateSuite::DeployedModel deployed =
                dse::SurrogateSuite::deploy(rows, metric, best,
                                            options.surrogate.seed);
            const std::string relpath = "models/" + metric + ".model";
            ml::save_model_file(path_in(relpath), *deployed.model);
            artifacts.push_back(relpath);
            ++result.trained_metrics;
          }
          return artifacts;
        });
    if (result.stages.back().skipped) {
      // Derive the counts from the manifest so a skipped train stage
      // still reports how many models it stands behind (artifacts are
      // table1.txt plus one model per trained metric).
      const StageRecord* train_record = manifest.find("train");
      if (train_record != nullptr && !train_record->artifacts.empty()) {
        result.trained_metrics = train_record->artifacts.size() - 1;
      }
    }
  }

  // --- recommend: sweep CSV -> best-point report -----------------------
  run_stage(
      "recommend", fnv1a_file(result.sweep_csv), options.budgets.recommend,
      [&](Deadline*) -> std::vector<std::string> {
        const std::vector<dse::SweepRow> rows = load_rows();
        std::ostringstream report;
        report << "=== Best simulated points ===\n"
               << dse::format_recommendations(
                      dse::recommend_from_sweep(rows));
        // The surrogate-driven recommendation is best-effort: a model
        // family that cannot train on this dataset degrades to a note,
        // it does not fail the stage.
        try {
          const std::vector<dse::Recommendation> surrogate_recs =
              dse::recommend_from_surrogate(rows, points);
          report << "\n=== Best predicted points (surrogate over the "
                    "design space) ===\n"
                 << dse::format_recommendations(surrogate_recs);
        } catch (const Error& e) {
          report << "\n(surrogate recommendation unavailable ["
                 << to_string(e.code()) << "]: " << e.what() << ")\n";
        }
        atomic_write_text(result.recommendations_path, report.str());
        return {"recommendations.txt"};
      });

  // Completed end to end: re-sweep for temps so a finished directory
  // holds only published artifacts (a mid-run crash re-cleans on the
  // next start instead).
  remove_stale_temp_files(options.out_dir);
  return result;
}

}  // namespace gmd::pipeline
