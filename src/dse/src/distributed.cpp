#include "gmd/dse/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/heartbeat.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/lease.hpp"
#include "gmd/tracestore/reader.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace gmd::dse {

namespace fs = std::filesystem;

namespace {

/// Adds one terminal row to a health tally, attributing non-ok rows to
/// `code` (the worker overrides the recorded code with kLeaseExpired
/// for points it abandoned on a stolen lease).
void tally(SweepHealth& health, const SweepRow& row, ErrorCode code) {
  ++health.total;
  switch (row.outcome) {
    case PointOutcome::kOk:
      ++health.ok;
      break;
    case PointOutcome::kFailed:
      ++health.failed;
      break;
    case PointOutcome::kTimedOut:
      ++health.timed_out;
      break;
    case PointOutcome::kSkipped:
      ++health.skipped;
      break;
  }
  if (row.outcome != PointOutcome::kOk) {
    ++health.by_code[static_cast<std::size_t>(code)];
  }
  health.retries += row.attempts > 1 ? row.attempts - 1 : 0;
}

}  // namespace

ShardPlan prepare_run(const RunDir& run, const JournalKey& key,
                      std::size_t shard_size, DistributedStats* stats) {
  fs::create_directories(run.tasks_dir());
  fs::create_directories(run.leases_dir());
  fs::create_directories(run.done_dir());
  fs::create_directories(run.journals_dir());

  // Reclaim *.tmp leftovers from crashed atomic writers before anything
  // scans the directories (they are already self-filtering, but stale
  // temps should not accumulate across kill-and-resume cycles).
  const std::size_t reclaimed = remove_stale_temp_files(run.root);
  if (stats != nullptr) stats->stale_temps_removed = reclaimed;
  if (reclaimed > 0) {
    GMD_LOG_INFO << "distributed sweep: reclaimed " << reclaimed
                 << " stale temp file(s) under '" << run.root << "'";
  }

  RunMeta meta{key, shard_size};
  if (fs::exists(run.meta_path())) {
    const RunMeta existing = read_run_meta(run.meta_path());
    GMD_REQUIRE_AS(
        ErrorCode::kConfig, existing.key == key,
        "run directory '"
            << run.root
            << "' belongs to a different sweep (run.meta identity mismatch); "
               "refusing to resume");
    // Adopt the existing geometry: a resumed run must shard exactly
    // like the original or task/lease names would not line up.
    meta = existing;
  } else {
    write_run_meta(run.meta_path(), meta);
  }

  // A stale completion marker (from a finished run being re-driven)
  // would make workers exit before the supervisor re-derives coverage;
  // it is rewritten — with identical content — on completion.
  remove_file_if_exists(run.complete_path());
  return ShardPlan(key.num_points, meta.shard_size);
}

MergeResult merge_journals(const RunDir& run, const JournalKey& key) {
  MergeResult merge;
  merge.rows.resize(key.num_points);

  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::directory_iterator it(run.journals_dir(), ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".journal") continue;
    paths.push_back(it->path().string());
  }
  // Filename order makes the first-wins dedup deterministic: the same
  // set of journals always merges to the same rows, whatever order the
  // workers finished in.  (Rows for one index are bit-identical across
  // journals anyway; determinism here is belt and braces.)
  std::sort(paths.begin(), paths.end());

  for (const std::string& path : paths) {
    JournalScan scan = scan_journal(path, key);
    if (!scan.warning.empty()) {
      merge.warnings.push_back(path + ": " + scan.warning);
    }
    for (auto& [index, row] : scan.rows) {
      if (index >= merge.rows.size()) continue;
      if (merge.rows[index].has_value()) {
        ++merge.duplicates;
        continue;
      }
      merge.rows[index] = std::move(row);
      ++merge.covered;
    }
  }
  return merge;
}

WorkerResult run_sweep_worker(const RunDir& run,
                              std::span<const DesignPoint> points,
                              const tracestore::TraceStoreReader& store,
                              const WorkerOptions& options) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, !options.worker_id.empty(),
                 "worker_id must be non-empty");
  const RunMeta meta = read_run_meta(run.meta_path());
  const JournalKey key =
      sweep_identity(make_journal_key(points, store), options.sweep);
  GMD_REQUIRE_AS(ErrorCode::kConfig, meta.key == key,
                 "run directory '"
                     << run.root
                     << "' belongs to a different sweep (run.meta identity "
                        "mismatch); worker '"
                     << options.worker_id << "' refusing to join");
  const ShardPlan plan(points.size(), meta.shard_size);

  WorkerResult result;
  result.health.by_code.assign(static_cast<std::size_t>(kLastErrorCode) + 1,
                               0);

  // This worker's own journal: a respawned worker adopts its dead
  // predecessor's rows and appends after them (load cuts a torn tail).
  // An unusable journal is abandoned with a warning — its rows merely
  // become re-issued work.
  SweepJournal journal(run.journal_path(options.worker_id), key,
                       options.worker_id);
  try {
    journal.load();
  } catch (const Error& e) {
    GMD_LOG_WARN << "worker '" << options.worker_id
                 << "': ignoring unusable journal [" << to_string(e.code())
                 << "]: " << e.what() << "; starting fresh";
  }

  std::mutex tally_mutex;
  std::size_t journaled_total = 0;

  auto last_activity = std::chrono::steady_clock::now();
  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    if (fs::exists(run.complete_path())) break;

    // Claim scan, rotated by worker id so a fleet spreads over the
    // available tasks instead of racing for the first one.
    const std::vector<ShardTask> tasks = list_tasks(run.tasks_dir());
    std::optional<HeldLease> lease;
    if (!tasks.empty()) {
      const std::size_t start =
          std::hash<std::string>{}(options.worker_id) % tasks.size();
      for (std::size_t k = 0; k < tasks.size() && !lease; ++k) {
        const ShardTask& task = tasks[(start + k) % tasks.size()];
        if (task.shard >= plan.num_shards()) continue;  // foreign junk
        lease = try_claim_shard(run, task, options.worker_id);
      }
    }
    if (!lease) {
      if (std::chrono::steady_clock::now() - last_activity >=
          options.idle_timeout) {
        GMD_LOG_WARN << "worker '" << options.worker_id
                     << "': idle timeout with the run incomplete; exiting";
        break;
      }
      std::this_thread::sleep_for(options.poll_interval);
      continue;
    }
    last_activity = std::chrono::steady_clock::now();

    // Points of the shard not yet covered by ANY journal — another
    // worker (or this worker's previous life) may have finished some.
    const ShardRange range = plan.range(lease->shard());
    const MergeResult coverage = merge_journals(run, key);
    std::vector<DesignPoint> local_points;
    std::vector<std::size_t> global_index;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      if (!coverage.rows[i].has_value()) {
        local_points.push_back(points[i]);
        global_index.push_back(i);
      }
    }
    if (local_points.empty()) {
      atomic_write_text(
          run.done_dir() + "/" + std::to_string(lease->shard()) + ".done",
          "already-covered holder=" + options.worker_id + "\n");
      lease->release();
      ++result.shards_completed;
      continue;
    }

    // Heartbeat: stamp the lease until the shard is done; a failed
    // stamp means the supervisor expired us — cancel the in-flight
    // sweep cooperatively and abandon the shard.
    Deadline shard_cancel(options.cancel);
    std::atomic<bool> lost{false};
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread heart([&] {
      std::unique_lock<std::mutex> lock(hb_mutex);
      while (!hb_cv.wait_for(lock, options.heartbeat_interval,
                             [&] { return hb_stop; })) {
        lock.unlock();
        try {
          lease->heartbeat();
        } catch (const Error&) {
          lost.store(true, std::memory_order_relaxed);
          shard_cancel.cancel();
          return;
        }
        lock.lock();
      }
    });
    const auto stop_heart = [&] {
      {
        std::lock_guard<std::mutex> lock(hb_mutex);
        hb_stop = true;
      }
      hb_cv.notify_all();
      if (heart.joinable()) heart.join();
    };

    SweepOptions sweep = options.sweep;
    sweep.checkpoint_path.clear();
    sweep.resume = false;
    sweep.cancel = &shard_cancel;
    // Terminal failures must become journal `fail` records — that is
    // how the supervisor tells "failed" from "never ran" — so fail-fast
    // executes as skip here; the fork runner re-raises at the end.
    if (sweep.failure_policy == FailurePolicy::kFailFast) {
      sweep.failure_policy = FailurePolicy::kSkip;
    }
    sweep.row_sink = [&](std::size_t local, const SweepRow& row) {
      journal.record(global_index[local], row);
      std::size_t total = 0;
      {
        std::lock_guard<std::mutex> lock(tally_mutex);
        total = ++journaled_total;
        ++result.points_simulated;
        tally(result.health, row, row.error_code);
      }
      if (options.progress_hook) options.progress_hook(total);
    };

    std::vector<SweepRow> local_rows;
    try {
      local_rows = run_sweep(local_points, store, sweep);
    } catch (...) {
      // Infrastructure failure (bad store, validation under fail-fast
      // semantics...): leave the lease to expire so another worker can
      // try, and surface the error to this worker's caller.
      stop_heart();
      throw;
    }
    stop_heart();

    const bool cancelled =
        options.cancel != nullptr && options.cancel->cancelled();
    if (lost.load(std::memory_order_relaxed) || cancelled) {
      ++result.shards_abandoned;
      {
        std::lock_guard<std::mutex> lock(tally_mutex);
        for (const SweepRow& row : local_rows) {
          if (row.outcome == PointOutcome::kSkipped) {
            tally(result.health, row,
                  cancelled ? ErrorCode::kCancelled
                            : ErrorCode::kLeaseExpired);
          }
        }
      }
      GMD_LOG_WARN << "worker '" << options.worker_id << "': shard "
                   << lease->shard() << " abandoned ("
                   << (cancelled ? "cancelled" : "lease expired") << ")";
      lease->release();
      continue;
    }

    atomic_write_text(
        run.done_dir() + "/" + std::to_string(lease->shard()) + ".done",
        "complete holder=" + options.worker_id +
            " points=" + std::to_string(local_points.size()) + "\n");
    lease->release();
    ++result.shards_completed;
  }
  return result;
}

std::vector<SweepRow> supervise(const RunDir& run,
                                std::span<const DesignPoint> points,
                                const JournalKey& key,
                                const SupervisorOptions& options,
                                DistributedStats* stats) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, key.num_points == points.size(),
                 "journal key covers " << key.num_points
                                       << " points but the list has "
                                       << points.size());
  const ShardPlan plan = prepare_run(run, key, options.shard_size, stats);
  if (stats != nullptr) stats->shards = plan.num_shards();

  StalenessTracker tracker;
  std::vector<std::uint64_t> top_generation(plan.num_shards(), 0);
  std::set<std::string> warned;

  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      throw Error(ErrorCode::kCancelled, "distributed sweep cancelled");
    }

    // Coverage is always re-derived from the journals — markers, tasks
    // and leases are coordination hints, never the source of truth.
    const MergeResult merge = merge_journals(run, key);
    if (stats != nullptr) {
      stats->journal_warnings = merge.warnings.size();
      stats->duplicate_rows = merge.duplicates;
    }
    for (const std::string& warning : merge.warnings) {
      if (warned.insert(warning).second) {
        GMD_LOG_WARN << "distributed sweep: unusable journal: " << warning;
      }
    }

    if (merge.complete()) {
      std::vector<SweepRow> rows(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        rows[i] = *merge.rows[i];
        rows[i].point = points[i];
      }
      std::vector<SweepRow> ok_rows;
      ok_rows.reserve(rows.size());
      for (const SweepRow& row : rows) {
        if (row.ok()) ok_rows.push_back(row);
      }
      if (!ok_rows.empty()) {
        // Same writer as the single-process pipeline, so the merged CSV
        // is byte-identical to what run_sweep + sweep_to_table produce.
        sweep_to_table(ok_rows).save(run.csv_path());
      } else {
        GMD_LOG_WARN << "distributed sweep: no ok rows; sweep.csv not "
                        "written";
      }
      atomic_write_text(run.complete_path(),
                        "gmd-sweep-complete v1 points=" +
                            std::to_string(points.size()) + "\n");
      GMD_LOG_INFO << "distributed sweep: complete (" << points.size()
                   << " points, " << plan.num_shards() << " shards)";
      return rows;
    }

    // Shard coverage for the passes below.
    std::vector<char> covered(plan.num_shards(), 1);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      const ShardRange range = plan.range(s);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        if (!merge.rows[i].has_value()) {
          covered[s] = 0;
          break;
        }
      }
    }

    // Lease liveness: a lease whose content stopped changing for
    // lease_ttl is expired by renaming it back into tasks/ under the
    // next generation.  The rename consumes the file, so an expiry
    // racing the holder's release (or another supervisor pass) resolves
    // to exactly one winner.
    std::error_code ec;
    for (fs::directory_iterator it(run.leases_dir(), ec), end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string name = it->path().filename().string();
      const std::optional<ShardTask> held = parse_lease_filename(name);
      if (!held || held->shard >= plan.num_shards()) continue;
      top_generation[held->shard] =
          std::max(top_generation[held->shard], held->generation);
      if (covered[held->shard]) continue;  // nothing left to re-issue
      std::uint64_t content_hash = 0;
      try {
        content_hash = fnv1a_file(it->path().string());
      } catch (const Error&) {
        tracker.forget(name);  // vanished mid-read (released/claimed)
        continue;
      }
      tracker.observe(name, content_hash);
      if (!tracker.stale(name, options.lease_ttl)) continue;
      const ShardTask reissue{held->shard, held->generation + 1};
      GMD_REQUIRE_AS(ErrorCode::kSimulation,
                     reissue.generation <= kMaxShardGenerations,
                     "shard " << held->shard << " exceeded "
                              << kMaxShardGenerations
                              << " generations without completing");
      if (atomic_rename_claim(
              it->path().string(),
              run.tasks_dir() + "/" + task_filename(reissue))) {
        GMD_LOG_WARN << "distributed sweep: lease '" << name
                     << "' went stale; re-issued shard " << held->shard
                     << " as generation " << reissue.generation;
        top_generation[held->shard] = reissue.generation;
        if (stats != nullptr) {
          ++stats->leases_expired;
          ++stats->tasks_issued;
        }
      }
      tracker.forget(name);
    }

    // Invariant pass: every uncovered shard must be claimable or
    // claimed.  A shard with no task AND no lease — fresh run, corrupt
    // journal, file lost to a crashed claim — gets a next-generation
    // task.  This one rule uniformly recovers every loss mode.
    const std::vector<ShardTask> tasks = list_tasks(run.tasks_dir());
    const std::vector<ShardTask> leases = list_leases(run.leases_dir());
    std::vector<char> claimable(plan.num_shards(), 0);
    for (const ShardTask& t : tasks) {
      if (t.shard >= plan.num_shards()) continue;
      claimable[t.shard] = 1;
      top_generation[t.shard] =
          std::max(top_generation[t.shard], t.generation);
    }
    for (const ShardTask& t : leases) {
      if (t.shard >= plan.num_shards()) continue;
      claimable[t.shard] = 1;
      top_generation[t.shard] =
          std::max(top_generation[t.shard], t.generation);
    }
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      if (covered[s] || claimable[s]) continue;
      const ShardTask task{s, top_generation[s] + 1};
      GMD_REQUIRE_AS(ErrorCode::kSimulation,
                     task.generation <= kMaxShardGenerations,
                     "shard " << s << " exceeded " << kMaxShardGenerations
                              << " generations without completing");
      write_task_file(run.tasks_dir() + "/" + task_filename(task), task);
      top_generation[s] = task.generation;
      if (stats != nullptr) ++stats->tasks_issued;
    }

    if (options.tick) options.tick();
    std::this_thread::sleep_for(options.poll_interval);
  }
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "status " + std::to_string(status);
}

}  // namespace

std::vector<SweepRow> run_sweep_distributed(
    std::span<const DesignPoint> points,
    const tracestore::TraceStoreReader& store, const std::string& run_dir,
    const SweepOptions& sweep, const DistributedSweepOptions& options,
    DistributedStats* stats) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, options.num_workers > 0,
                 "num_workers must be positive");
  const RunDir run{run_dir};
  const JournalKey key = sweep_identity(make_journal_key(points, store), sweep);
  // Before forking, so every child sees run.meta and the directories.
  prepare_run(run, key, options.shard_size, stats);

  struct Child {
    pid_t pid = 0;  ///< 0 once reaped.
    std::size_t slot = 0;
  };
  std::vector<Child> children;

  const auto spawn = [&](std::size_t slot, bool with_kill_hook) {
    const pid_t pid = ::fork();
    GMD_REQUIRE_AS(ErrorCode::kIo, pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: run the worker loop and leave via _Exit — no unwinding,
      // no flushing of inherited stdio, exactly like the kill paths.
      try {
        WorkerOptions worker;
        worker.worker_id = "worker-" + std::to_string(slot);
        worker.sweep = sweep;
        worker.sweep.cancel = nullptr;  // parent-owned token: meaningless here
        worker.sweep.checkpoint_path.clear();
        worker.sweep.resume = false;
        worker.sweep.row_sink = nullptr;
        worker.heartbeat_interval = options.heartbeat_interval;
        worker.poll_interval = options.poll_interval;
        worker.idle_timeout = std::max<std::chrono::milliseconds>(
            options.lease_ttl * 10, std::chrono::milliseconds(2000));
        if (with_kill_hook && options.kill_after_points > 0) {
          const std::size_t kill_after = options.kill_after_points;
          worker.progress_hook = [kill_after](std::size_t journaled) {
            // The SIGKILL stand-in: no destructors, no flushes.
            if (journaled >= kill_after) ::_Exit(137);
          };
        }
        run_sweep_worker(run, points, store, worker);
        ::_Exit(0);
      } catch (...) {
        ::_Exit(1);
      }
    }
    children.push_back(Child{pid, slot});
  };

  for (std::size_t slot = 0; slot < options.num_workers; ++slot) {
    spawn(slot, slot < options.kill_workers);
  }

  std::size_t respawned = 0;
  SupervisorOptions supervisor;
  supervisor.shard_size = options.shard_size;
  supervisor.lease_ttl = options.lease_ttl;
  supervisor.poll_interval = options.poll_interval;
  supervisor.cancel = options.cancel;
  supervisor.tick = [&] {
    std::size_t live = 0;
    for (std::size_t c = 0; c < children.size(); ++c) {
      if (children[c].pid == 0) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(children[c].pid, &status, WNOHANG);
      if (reaped == 0) {
        ++live;
        continue;
      }
      const std::size_t slot = children[c].slot;
      children[c].pid = 0;
      const bool clean =
          reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!clean) {
        GMD_LOG_WARN << "distributed sweep: worker-" << slot << " died ("
                     << (reaped > 0 ? describe_exit(status) : "wait error")
                     << ")";
      }
      if (options.respawn_dead_workers && respawned < kMaxRespawns) {
        // The replacement reuses the slot id, adopting the dead
        // worker's journal; the predecessor is reaped, so the
        // single-writer-per-journal rule holds.
        ++respawned;
        if (stats != nullptr) ++stats->workers_respawned;
        spawn(slot, false);
        ++live;
      }
    }
    if (live == 0 && !merge_journals(run, key).complete()) {
      throw Error(ErrorCode::kSimulation,
                  "all distributed sweep workers exited before the run "
                  "completed");
    }
  };

  std::vector<SweepRow> rows;
  try {
    rows = supervise(run, points, key, supervisor, stats);
  } catch (...) {
    // Tear the fleet down before propagating — stray children would
    // outlive the failed run.
    for (const Child& child : children) {
      if (child.pid != 0) ::kill(child.pid, SIGKILL);
    }
    for (const Child& child : children) {
      if (child.pid != 0) {
        int status = 0;
        ::waitpid(child.pid, &status, 0);
      }
    }
    throw;
  }

  // run.complete is on disk: workers exit on their next poll.  Give
  // them a grace period, then hard-kill stragglers.
  const auto grace_end =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    std::size_t live = 0;
    for (auto& child : children) {
      if (child.pid == 0) continue;
      int status = 0;
      if (::waitpid(child.pid, &status, WNOHANG) != 0) {
        child.pid = 0;
      } else {
        ++live;
      }
    }
    if (live == 0) break;
    if (std::chrono::steady_clock::now() >= grace_end) {
      for (auto& child : children) {
        if (child.pid != 0) ::kill(child.pid, SIGKILL);
      }
      for (auto& child : children) {
        if (child.pid == 0) continue;
        int status = 0;
        ::waitpid(child.pid, &status, 0);
        child.pid = 0;
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // The workers ran fail-fast as skip (failures must journal); restore
  // the caller's semantics by re-raising the first recorded failure.
  if (sweep.failure_policy == FailurePolicy::kFailFast) {
    for (const SweepRow& row : rows) {
      if (!row.ok()) {
        throw Error(row.error_code == ErrorCode::kUnspecified
                        ? ErrorCode::kSimulation
                        : row.error_code,
                    row.error.empty() ? "sweep point failed" : row.error);
      }
    }
  }
  return rows;
}

#else  // !POSIX

std::vector<SweepRow> run_sweep_distributed(
    std::span<const DesignPoint>, const tracestore::TraceStoreReader&,
    const std::string&, const SweepOptions&, const DistributedSweepOptions&,
    DistributedStats*) {
  GMD_REQUIRE_AS(ErrorCode::kConfig, false,
                 "run_sweep_distributed requires a POSIX platform");
  return {};
}

#endif

}  // namespace gmd::dse
