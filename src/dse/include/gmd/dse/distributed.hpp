#pragma once

/// \file distributed.hpp
/// Distributed sweep execution: lease-based multi-process sharding that
/// survives worker death.
///
/// Roles (all coordinating through one run directory, see shard.hpp):
///
///  - run_sweep_worker(): claims shard tasks through atomic-rename
///    leases, simulates the claimed point ranges with the ordinary
///    run_sweep fast paths against the shared (mmap'd, read-only) GMDT
///    store, and appends every terminal row to its own checkpoint
///    journal under the point's GLOBAL index.  A worker owns exactly
///    one journal file, so journal writes need no cross-process
///    locking.  A background heartbeat keeps each held lease stamped;
///    when the stamp reports Error(kLeaseExpired) — the supervisor
///    presumed this worker dead — the shard's in-flight work is
///    cancelled cooperatively and the worker moves on.
///
///  - supervise(): plans the shards, issues task files, watches lease
///    liveness (content change on its own steady clock — see
///    gmd::StalenessTracker), expires stalled leases by re-issuing the
///    shard under the next generation, and every poll re-derives
///    coverage by merging all worker journals, read-only while the
///    workers keep appending (scan_journal).  When every point is
///    covered it writes the merged sweep.csv (same writer as the
///    single-process pipeline) and the run.complete marker.
///
///  - run_sweep_distributed(): convenience fork-based runner — forks N
///    worker processes (each inherits the parent's store mapping:
///    true zero-copy sharing), supervises them, reaps and respawns dead
///    ones, and returns rows bit-identical to run_sweep() on the same
///    inputs.  Includes a deterministic fault-injection knob (kill K
///    workers after P journaled points via _Exit, the SIGKILL
///    stand-in) so crash recovery is testable in-process.
///
/// Correctness rests on determinism, not mutual exclusion: any point
/// simulated by any worker yields the bit-identical row, and the merge
/// deduplicates by global point index (journals in filename order,
/// first record wins), so stolen leases, double claims, and resurrected
/// workers cost duplicate work only.  Completion is journal coverage of
/// every index — `fail` records count, distinguishing "failed
/// terminally" from "never ran" so a deterministically failing shard is
/// not re-issued forever.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gmd/common/deadline.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/shard.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::tracestore {
class TraceStoreReader;
}

namespace gmd::dse {

/// Counters surfaced by the supervisor/runner for reporting and tests.
struct DistributedStats {
  std::size_t shards = 0;            ///< Shards in the plan.
  std::size_t tasks_issued = 0;      ///< Task files written (all gens).
  std::size_t leases_expired = 0;    ///< Stalled leases re-issued.
  std::size_t stale_temps_removed = 0;  ///< *.tmp reclaimed at startup.
  std::size_t journal_warnings = 0;  ///< Unusable journals at last merge.
  std::size_t duplicate_rows = 0;    ///< Rows deduplicated at last merge.
  std::size_t workers_respawned = 0;  ///< Fork runner only.
};

/// Creates (or adopts) the run directory for the sweep identified by
/// `key`: makes the subdirectories, reclaims stale *.tmp files from a
/// previous crash (logged), clears a stale run.complete marker, and
/// writes run.meta — or, when one already exists, verifies its key
/// (Error(kConfig) on mismatch: the directory belongs to a different
/// sweep) and adopts its shard geometry so a resumed run shards
/// identically.  Returns the resulting plan.
ShardPlan prepare_run(const RunDir& run, const JournalKey& key,
                      std::size_t shard_size,
                      DistributedStats* stats = nullptr);

/// Tolerant merge of every journal in the run directory.
struct MergeResult {
  /// rows[i] engaged iff point i is covered by some journal (ok or
  /// fail record).  Deterministic: journals in filename order, first
  /// record per index wins.
  std::vector<std::optional<SweepRow>> rows;
  std::size_t covered = 0;
  std::size_t duplicates = 0;
  /// One entry per journal with a corrupt record or that failed to
  /// load (foreign, unparseable); rows it does not yield count as
  /// never-run and the work is re-issued.
  std::vector<std::string> warnings;

  bool complete() const { return covered == rows.size(); }
};

MergeResult merge_journals(const RunDir& run, const JournalKey& key);

struct WorkerOptions {
  /// Names this worker's journal file and lease stamps.  Must be unique
  /// among LIVE workers of a run; a respawned worker may (and should)
  /// reuse its predecessor's id to adopt that journal.
  std::string worker_id = "worker";
  /// Base simulation options (threads, sampling, failure policy...).
  /// checkpoint_path/resume/row_sink/cancel are owned by the worker and
  /// ignored; kFailFast is executed as kSkip so terminal failures
  /// become journal `fail` records instead of re-issued work (the
  /// fork runner re-raises them at the end).
  SweepOptions sweep;
  std::chrono::milliseconds heartbeat_interval{100};
  std::chrono::milliseconds poll_interval{25};
  /// Exit after this long with nothing claimable and the run still
  /// incomplete (covers a dead supervisor).  The normal exit is the
  /// run.complete marker appearing.
  std::chrono::milliseconds idle_timeout{30000};
  Deadline* cancel = nullptr;  ///< Optional external stop. Non-owning.
  /// Called after every journaled point with the worker's running total
  /// — the fault-injection hook (kill-after-K) and progress probe.
  std::function<void(std::size_t)> progress_hook;
};

struct WorkerResult {
  std::size_t shards_completed = 0;
  std::size_t shards_abandoned = 0;  ///< Lease lost mid-shard.
  std::size_t points_simulated = 0;  ///< Journaled by this invocation.
  /// Tallies over this invocation's terminal rows; points abandoned on
  /// a lost lease are counted as skipped with code kLeaseExpired, so
  /// lease churn is visible in SweepHealth::summary().
  SweepHealth health;
};

/// Runs the worker loop until the run completes, the idle timeout
/// expires, or `options.cancel` fires.  `points` must be the FULL
/// design-point list of the run (identity-checked against run.meta;
/// Error(kConfig) on mismatch).
WorkerResult run_sweep_worker(const RunDir& run,
                              std::span<const DesignPoint> points,
                              const tracestore::TraceStoreReader& store,
                              const WorkerOptions& options);

/// Hard bound on re-issues per shard; the supervisor throws
/// Error(kSimulation) past it — the shard is poisoning every worker that
/// touches it without ever journaling a terminal row.
inline constexpr std::uint64_t kMaxShardGenerations = 64;

struct SupervisorOptions {
  std::size_t shard_size = 16;
  /// A lease whose content has not changed for this long (on the
  /// supervisor's steady clock) is expired and its shard re-issued.
  std::chrono::milliseconds lease_ttl{2000};
  std::chrono::milliseconds poll_interval{25};
  Deadline* cancel = nullptr;  ///< Optional external stop. Non-owning.
  /// Called once per poll after the invariant pass — the fork runner
  /// reaps/respawns children here.  May throw to abort the run.
  std::function<void()> tick;
};

/// Supervises the run to completion and returns the merged rows in
/// point order (row.point filled from `points`).  Also writes
/// sweep.csv (ok rows, same writer as the pipeline) and run.complete.
/// Safe to call on a fresh directory (issues all shards) or a
/// partially complete one (issues only what the journals do not cover).
std::vector<SweepRow> supervise(const RunDir& run,
                                std::span<const DesignPoint> points,
                                const JournalKey& key,
                                const SupervisorOptions& options,
                                DistributedStats* stats = nullptr);

/// Worker respawns one run_sweep_distributed call allows.
inline constexpr std::size_t kMaxRespawns = 16;

struct DistributedSweepOptions {
  std::size_t num_workers = 4;
  std::size_t shard_size = 16;
  std::chrono::milliseconds lease_ttl{2000};
  std::chrono::milliseconds heartbeat_interval{100};
  std::chrono::milliseconds poll_interval{25};
  /// Respawn a worker process that died before the run completed, up to
  /// kMaxRespawns total.  With respawning off (or the budget spent) the
  /// survivors absorb the dead worker's shards via lease expiry.
  bool respawn_dead_workers = true;

  // --- deterministic fault injection (tests/CI) ------------------------
  /// The first kill_workers initial workers _Exit(137) — no unwinding,
  /// no flushes, the SIGKILL stand-in — after journaling
  /// kill_after_points points.  Respawned replacements run clean.
  std::size_t kill_workers = 0;
  std::size_t kill_after_points = 0;

  Deadline* cancel = nullptr;  ///< Optional external stop. Non-owning.
};

/// Forks `num_workers` worker processes over the store (children
/// inherit the parent's read-only mapping — zero-copy sharing),
/// supervises them to completion, and returns rows bit-identical to
/// run_sweep(points, store, sweep) on the same inputs.  The run
/// directory persists afterwards (journals, sweep.csv, run.complete) —
/// call again with the same arguments to resume/no-op.  Under
/// FailurePolicy::kFailFast the first failed row is re-thrown with its
/// recorded code, matching in-process semantics.  POSIX only; throws
/// Error(kConfig) elsewhere.  Must not be called from a process whose
/// other threads hold locks (fork inherits only the calling thread).
std::vector<SweepRow> run_sweep_distributed(
    std::span<const DesignPoint> points,
    const tracestore::TraceStoreReader& store, const std::string& run_dir,
    const SweepOptions& sweep, const DistributedSweepOptions& options,
    DistributedStats* stats = nullptr);

}  // namespace gmd::dse
