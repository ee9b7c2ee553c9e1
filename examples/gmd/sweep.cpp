/// \file sweep.cpp
/// `gmd sweep` and `gmd worker`: the NVMain sweep of the paper's Fig. 1,
/// the interactive equivalent of reading one block of Figure 2.
///
/// `gmd sweep` simulates a point list (`--space`, one `--axis` slice by
/// default) over the workload's trace, or over a `--trace` file: a GMDT
/// store feeds the sweep straight from the memory-mapped file.  It prints a metric table and `--csv` saves the
/// ok rows in the pipeline's sweep.csv format.
///
/// Distributed mode (--run-dir DIR): the sweep executes as a lease-based
/// multi-process run over a shared run directory.  The trace is
/// published once as <run-dir>/trace.gmdt (a GMDT `--trace` is copied
/// as is, so its chunks stay the sampling windows) and every worker maps
/// it read-only.
///
///   --run-dir DIR --distributed N   fork N workers, supervise them,
///                                   survive (and respawn) dead ones
///   --run-dir DIR --supervise-only  plan/monitor/merge only; start
///                                   `gmd worker --run-dir DIR` with the
///                                   same point and sampling flags
///
/// --kill-workers K --kill-after-points P makes the first K forked
/// workers _Exit(137) (the SIGKILL stand-in) after journaling P points
/// — the deterministic crash-recovery demo: the run still completes
/// and the merged rows are bit-identical to a single-process sweep.
///
/// `gmd worker` joins such a run directory, claims shard tasks through
/// atomic-rename leases, simulates them against the shared store, and
/// journals every terminal row under journals/<worker-id>.journal.  It
/// exits when the supervisor publishes run.complete (or after
/// --idle-timeout-ms with nothing left to claim).  Kill it at any
/// instant and start another: the supervisor expires the orphaned lease
/// and re-issues the shard, and a worker restarted under the same
/// --worker id adopts its predecessor's journal.  The run directory's
/// identity check refuses a worker configured for a different sweep.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "flags.hpp"
#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/distributed.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"
#include "verbs.hpp"

namespace gmd::cli {

namespace {

/// Publishes the sweep's trace as <run-dir>/trace.gmdt unless a readable
/// store is already there (a resumed run reuses the published one,
/// keeping the sweep identity stable across supervisor restarts).  A
/// GMDT input is copied byte for byte, never decoded; otherwise `events`
/// are encoded.  Both writes are temp-then-rename, so a worker waiting
/// for the file never maps a partial store.
std::string publish_run_trace(const std::string& run_dir,
                              const TraceInput& input,
                              std::span<const cpusim::MemoryEvent> events) {
  std::filesystem::create_directories(run_dir);
  const std::string store_path = run_dir + "/trace.gmdt";
  if (std::filesystem::exists(store_path)) {
    try {
      const tracestore::TraceStoreReader probe(store_path);
      return store_path;  // complete store from a previous run
    } catch (const Error&) {
      std::cout << "rewriting unreadable trace store '" << store_path
                << "'\n";
    }
  }
  if (input.gmdt) {
    atomic_write_file(
        store_path,
        [&](std::ostream& out) {
          std::ifstream in(input.path, std::ios::binary);
          GMD_REQUIRE_AS(ErrorCode::kIo, in.good(),
                         "cannot open trace '" << input.path << "'");
          out << in.rdbuf();
        },
        std::ios::binary);
  } else {
    tracestore::write_trace_store(store_path, events);
  }
  return store_path;
}

void print_rows(const std::vector<dse::SweepRow>& rows) {
  std::cout << std::left << std::setw(28) << "configuration" << std::right
            << std::setw(10) << "power(W)" << std::setw(12) << "bw(MB/s)"
            << std::setw(10) << "lat(cy)" << std::setw(12) << "totlat(cy)"
            << std::setw(12) << "rd/ch" << std::setw(12) << "wr/ch" << "\n";
  for (const auto& row : rows) {
    if (!row.ok()) {
      std::cout << std::left << std::setw(28) << row.point.id() << "  <"
                << dse::to_string(row.outcome) << "> ["
                << to_string(row.error_code) << "] " << row.error << "\n";
      continue;
    }
    const auto& m = row.metrics;
    std::cout << std::left << std::setw(28) << row.point.id() << std::right
              << std::fixed << std::setprecision(4) << std::setw(10)
              << m.avg_power_per_channel_w << std::setprecision(1)
              << std::setw(12) << m.avg_bandwidth_per_bank_mbs
              << std::setw(10) << m.avg_latency_cycles << std::setw(12)
              << m.avg_total_latency_cycles << std::setw(12)
              << m.avg_reads_per_channel << std::setw(12)
              << m.avg_writes_per_channel << "\n";
    if (row.sampled()) {
      const auto& ci = row.metric_ci;
      std::cout << std::setprecision(1) << "  ci(95% joint): power ["
                << ci[0].lo << ", " << ci[0].hi << "] bw [" << ci[1].lo
                << ", " << ci[1].hi << "] lat [" << ci[2].lo << ", "
                << ci[2].hi << "] totlat [" << ci[3].lo << ", " << ci[3].hi
                << "]\n";
    }
  }
}

std::string default_worker_id() {
#if defined(__unix__) || defined(__APPLE__)
  return "worker-" + std::to_string(::getpid());
#else
  return "worker";
#endif
}

/// Waits for the supervisor to publish the store and run.meta (both are
/// temp-then-rename writes, so existing means complete).
void wait_for_run(const std::string& store_path, const std::string& meta_path,
                  std::chrono::milliseconds budget) {
  namespace fs = std::filesystem;
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!(fs::exists(store_path) && fs::exists(meta_path))) {
    GMD_REQUIRE_AS(ErrorCode::kTimeout,
                   std::chrono::steady_clock::now() < give_up,
                   "run directory not initialized within "
                       << budget.count() << " ms (waiting for '" << store_path
                       << "' and '" << meta_path << "')");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int sweep(int argc, char** argv) {
  CliParser cli("gmd sweep", "simulate a memory design space");
  add_workload(cli, {.graph_vertices = 256});
  add_points(cli);
  add_sweep(cli, "failfast");
  add_trace_input(cli);
  cli.add_option("checkpoint", "",
                 "journal completed rows to this file (one append per row)")
      .add_flag("resume", "resume from an existing --checkpoint journal")
      .add_option("csv", "", "also save ok rows as a CSV table here")
      .add_option("run-dir", "",
                  "distributed mode: shared run directory (leases, "
                  "journals, trace.gmdt)")
      .add_option("distributed", "4",
                  "worker processes to fork under --run-dir")
      .add_flag("supervise-only",
                "plan/monitor/merge only; workers join via gmd worker")
      .add_option("shard-points", "16", "points per claimable shard")
      .add_option("lease-ttl-ms", "2000",
                  "expire a lease whose heartbeat stalls this long")
      .add_option("kill-workers", "0",
                  "fault injection: this many forked workers _Exit(137)")
      .add_option("kill-after-points", "0",
                  "fault injection: ...after journaling this many points");
  if (!parse(cli, argc, argv)) return 0;

  const dse::WorkloadSpec spec = read_workload(cli);
  const TraceInput input = read_trace_input(cli);
  std::vector<cpusim::MemoryEvent> events;
  std::optional<tracestore::TraceStoreReader> store;
  if (input.path.empty()) {
    events = dse::generate_workload_trace(spec);
    std::cout << "workload '" << spec.workload << "': " << events.size()
              << " memory events\n\n";
  } else if (input.gmdt) {
    store.emplace(input.path);
    std::cout << "trace store: " << store->num_chunks() << " chunks, "
              << store->file_bytes() << " bytes\n\n";
  } else {
    events = read_trace_events(input);
    std::cout << "trace '" << input.path << "': " << events.size()
              << " memory events\n\n";
  }

  const std::vector<dse::DesignPoint> points = read_points(cli).materialize();
  dse::SweepOptions sweep = read_sweep(cli);
  sweep.checkpoint_path = cli.get_string("checkpoint");
  sweep.resume = cli.get_flag("resume");

  const std::string run_dir = cli.get_string("run-dir");
  std::vector<dse::SweepRow> rows;
  if (!run_dir.empty()) {
    // --- distributed: lease-based multi-process run --------------------
    const tracestore::TraceStoreReader run_store(
        publish_run_trace(run_dir, input, events));
    std::cout << "run dir '" << run_dir << "': " << points.size()
              << " points, trace store " << run_store.num_chunks()
              << " chunks\n";

    dse::DistributedStats stats;
    if (cli.get_flag("supervise-only")) {
      dse::SupervisorOptions sup;
      sup.shard_size = cli.get_count("shard-points");
      sup.lease_ttl = get_ms(cli, "lease-ttl-ms");
      const dse::JournalKey key = dse::sweep_identity(
          dse::make_journal_key(points, run_store), sweep);
      rows = dse::supervise({run_dir}, points, key, sup, &stats);
    } else {
      dse::DistributedSweepOptions dist;
      dist.num_workers = cli.get_count("distributed");
      dist.shard_size = cli.get_count("shard-points");
      dist.lease_ttl = get_ms(cli, "lease-ttl-ms");
      dist.kill_workers = cli.get_count("kill-workers");
      dist.kill_after_points = cli.get_count("kill-after-points");
      rows = dse::run_sweep_distributed(points, run_store, run_dir, sweep,
                                        dist, &stats);
    }
    std::cout << "distributed: " << stats.shards << " shards, "
              << stats.tasks_issued << " tasks issued, "
              << stats.leases_expired << " leases expired, "
              << stats.workers_respawned << " workers respawned, "
              << stats.duplicate_rows << " duplicate rows merged\n\n";
  } else if (store) {
    rows = dse::run_sweep(points, *store, sweep);
  } else {
    rows = dse::run_sweep(points, events, sweep);
  }

  print_rows(rows);
  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    std::vector<dse::SweepRow> ok_rows;
    for (const auto& row : rows) {
      if (row.ok()) ok_rows.push_back(row);
    }
    // Same writer as the pipeline and the distributed supervisor, so
    // this CSV is byte-comparable against a run directory's sweep.csv.
    dse::sweep_to_table(ok_rows).save(csv);
    std::cout << "\nsaved " << ok_rows.size() << " ok rows to '" << csv
              << "'\n";
  }
  const dse::SweepHealth health = dse::summarize_health(rows);
  if (!health.all_ok()) {
    std::cout << "\nsweep health: " << health.summary() << "\n";
  }
  return 0;
}

int worker(int argc, char** argv) {
  CliParser cli("gmd worker", "one lease-claiming distributed sweep worker");
  add_points(cli);
  add_sweep(cli, "skip");
  cli.add_option("run-dir", "", "shared run directory (required)")
      .add_option("worker", "", "worker id (default: worker-<pid>)")
      .add_option("heartbeat-ms", "100", "lease heartbeat interval")
      .add_option("poll-ms", "25", "task-scan poll interval")
      .add_option("idle-timeout-ms", "30000",
                  "exit after this long with nothing claimable")
      .add_option("wait-ms", "10000",
                  "wait this long for trace.gmdt + run.meta to appear")
      .add_option("exit-after-points", "0",
                  "fault injection: _Exit(137) after journaling this many "
                  "points (the SIGKILL stand-in)");
  if (!parse(cli, argc, argv)) return 0;

  const std::string run_root = cli.get_string("run-dir");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !run_root.empty(),
                 "--run-dir is required");
  const std::vector<dse::DesignPoint> points = read_points(cli).materialize();
  dse::WorkerOptions worker;
  worker.worker_id = cli.get_string("worker");
  if (worker.worker_id.empty()) worker.worker_id = default_worker_id();
  worker.sweep = read_sweep(cli);
  worker.heartbeat_interval = get_ms(cli, "heartbeat-ms");
  worker.poll_interval = get_ms(cli, "poll-ms");
  worker.idle_timeout = get_ms(cli, "idle-timeout-ms");
  const std::size_t exit_after = cli.get_count("exit-after-points");
  if (exit_after > 0) {
    worker.progress_hook = [exit_after](std::size_t journaled) {
      if (journaled >= exit_after) {
        std::cerr << "[fault] _Exit(137) after " << journaled
                  << " journaled points\n";
        std::_Exit(137);
      }
    };
  }

  const dse::RunDir run{run_root};
  const std::string store_path = run_root + "/trace.gmdt";
  wait_for_run(store_path, run.meta_path(), get_ms(cli, "wait-ms"));
  const tracestore::TraceStoreReader store(store_path);

  std::cout << "worker '" << worker.worker_id << "' joining run '"
            << run_root << "' (" << points.size() << " points)\n";
  const dse::WorkerResult result =
      dse::run_sweep_worker(run, points, store, worker);
  std::cout << "worker '" << worker.worker_id << "': "
            << result.shards_completed << " shard(s) completed, "
            << result.shards_abandoned << " abandoned, "
            << result.points_simulated << " point(s) journaled\n";
  if (!result.health.all_ok()) {
    std::cout << "health: " << result.health.summary() << "\n";
  }
  return 0;
}

}  // namespace gmd::cli
