/// \file sweep_worker.cpp
/// One distributed sweep worker process.  Joins a run directory
/// prepared by a supervisor (`memory_explorer --run-dir DIR
/// --supervise-only`), claims shard tasks through atomic-rename leases,
/// simulates them against the shared <run-dir>/trace.gmdt store, and
/// journals every terminal row under journals/<worker-id>.journal.
/// Exits when the supervisor publishes run.complete (or after
/// --idle-timeout-ms with nothing left to claim).
///
/// Kill it at any instant — SIGKILL included — and start another: the
/// supervisor expires the orphaned lease and re-issues the shard, and a
/// worker restarted under the same --worker id adopts its predecessor's
/// journal.  The point list is rebuilt locally from --space/--axis/
/// --kind (and the sampling flags), which must match the supervisor's
/// invocation: the run directory's identity check refuses a worker
/// configured for a different sweep.
///
/// Usage: sweep_worker --run-dir DIR [--worker ID]
///          [--space axis|reduced|paper] [--axis ctrl|cpu|channels|trcd]
///          [--kind dram|nvm|hybrid] [--policy skip|retry|failfast]
///          [--retries N] [--deadline-ms N] [--threads N]
///          [--sample-fraction F] [--sample-seed N] [--sample-chunk-events N]
///          [--heartbeat-ms N] [--poll-ms N] [--idle-timeout-ms N]
///          [--wait-ms N] [--exit-after-points K]

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/distributed.hpp"
#include "gmd/tracestore/reader.hpp"

namespace {

using namespace gmd;

dse::FailurePolicy parse_policy(const std::string& policy) {
  if (policy == "failfast") return dse::FailurePolicy::kFailFast;
  if (policy == "skip") return dse::FailurePolicy::kSkip;
  if (policy == "retry") return dse::FailurePolicy::kRetry;
  throw Error(ErrorCode::kConfig,
              "unknown failure policy '" + policy + "' (failfast|skip|retry)");
}

dse::MemoryKind parse_kind(const std::string& kind) {
  if (kind == "dram") return dse::MemoryKind::kDram;
  if (kind == "nvm") return dse::MemoryKind::kNvm;
  if (kind == "hybrid") return dse::MemoryKind::kHybrid;
  throw Error("unknown memory kind '" + kind + "'");
}

std::vector<dse::DesignPoint> build_points(const std::string& space,
                                           const std::string& axis,
                                           dse::MemoryKind kind) {
  if (space == "axis") return dse::axis_design_points(axis, kind);
  if (space == "reduced") return dse::reduced_design_space();
  if (space == "paper") return dse::paper_design_space();
  throw Error(ErrorCode::kConfig,
              "unknown space '" + space + "' (axis|reduced|paper)");
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

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("sweep_worker", "one lease-claiming distributed sweep worker");
  cli.add_option("run-dir", "", "shared run directory (required)")
      .add_option("worker", "", "worker id (default: worker-<pid>)")
      .add_option("space", "axis",
                  "point set: axis (one --axis slice) | reduced | paper")
      .add_option("axis", "ctrl", "axis to sweep: ctrl | cpu | channels | trcd")
      .add_option("kind", "nvm", "memory technology: dram | nvm | hybrid")
      .add_option("policy", "skip", "failure policy: failfast | skip | retry")
      .add_option("retries", "3", "max attempts per point under --policy retry")
      .add_option("deadline-ms", "0",
                  "per-point wall budget in milliseconds (0: unlimited)")
      .add_option("threads", "0", "sweep threads (0 = hardware)")
      .add_option("sample-fraction", "1.0",
                  "chunk-sampled sweep: fraction of store chunks per point")
      .add_option("sample-seed", "1", "seed of the sampled chunk subset")
      .add_option("sample-chunk-events", "10000",
                  "events per sampling window (identity only)")
      .add_option("heartbeat-ms", "100", "lease heartbeat interval")
      .add_option("poll-ms", "25", "task-scan poll interval")
      .add_option("idle-timeout-ms", "30000",
                  "exit after this long with nothing claimable")
      .add_option("wait-ms", "10000",
                  "wait this long for trace.gmdt + run.meta to appear")
      .add_option("exit-after-points", "0",
                  "fault injection: _Exit(137) after journaling this many "
                  "points (the SIGKILL stand-in)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string run_root = cli.get_string("run-dir");
    GMD_REQUIRE_AS(ErrorCode::kConfig, !run_root.empty(),
                   "--run-dir is required");
    const dse::RunDir run{run_root};
    const std::string store_path = run_root + "/trace.gmdt";
    wait_for_run(store_path, run.meta_path(),
                 std::chrono::milliseconds(cli.get_int("wait-ms")));

    const tracestore::TraceStoreReader store(store_path);
    const auto points = build_points(cli.get_string("space"),
                                     cli.get_string("axis"),
                                     parse_kind(cli.get_string("kind")));

    dse::WorkerOptions worker;
    worker.worker_id = cli.get_string("worker");
    if (worker.worker_id.empty()) worker.worker_id = default_worker_id();
    worker.sweep.failure_policy = parse_policy(cli.get_string("policy"));
    worker.sweep.max_attempts =
        static_cast<std::uint32_t>(cli.get_int("retries"));
    worker.sweep.point_wall_budget =
        std::chrono::milliseconds(cli.get_int("deadline-ms"));
    worker.sweep.num_threads =
        static_cast<std::size_t>(cli.get_int("threads"));
    worker.sweep.sample_fraction = cli.get_double("sample-fraction");
    worker.sweep.sample_seed =
        static_cast<std::uint64_t>(cli.get_int("sample-seed"));
    worker.sweep.sampling_chunk_events =
        static_cast<std::size_t>(cli.get_int("sample-chunk-events"));
    worker.heartbeat_interval =
        std::chrono::milliseconds(cli.get_int("heartbeat-ms"));
    worker.poll_interval = std::chrono::milliseconds(cli.get_int("poll-ms"));
    worker.idle_timeout =
        std::chrono::milliseconds(cli.get_int("idle-timeout-ms"));

    const auto exit_after =
        static_cast<std::size_t>(cli.get_int("exit-after-points"));
    if (exit_after > 0) {
      worker.progress_hook = [exit_after](std::size_t journaled) {
        if (journaled >= exit_after) {
          std::cerr << "[fault] _Exit(137) after " << journaled
                    << " journaled points\n";
          std::_Exit(137);
        }
      };
    }

    std::cout << "worker '" << worker.worker_id << "' joining run '"
              << run_root << "' (" << points.size() << " points)\n";
    const dse::WorkerResult result = dse::run_sweep_worker(
        run, points, store, worker);
    std::cout << "worker '" << worker.worker_id << "': "
              << result.shards_completed << " shard(s) completed, "
              << result.shards_abandoned << " abandoned, "
              << result.points_simulated << " point(s) journaled\n";
    if (!result.health.all_ok()) {
      std::cout << "health: " << result.health.summary() << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
