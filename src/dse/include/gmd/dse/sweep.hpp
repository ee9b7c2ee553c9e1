#pragma once

/// \file sweep.hpp
/// Runs the memory simulator over a set of design points — the
/// labeled-data-generation stage of the workflow (NVMain's role in
/// Figure 1).  Points that share a clock-free decode geometry (see
/// feed_key) form a trace group and replay one Feed instead of
/// re-splitting and re-decoding the event stream per config.
/// Each group — or, for a group costing more than one thread's share of
/// the sweep, each interleaved piece of it (never more pieces than
/// points) — is one task on a thread pool: the task builds its feed,
/// replays the members in point order and drops the feed, so at most
/// num_threads feeds are live at once.
/// Workers claim tasks from a shared counter, most expensive first
/// (dynamic load balancing).
///
/// Execution is fault-tolerant: each point carries a typed outcome, a
/// FailurePolicy selects fail-fast / skip-and-report / retry, per-point
/// wall budgets cancel stuck simulations via gmd::Deadline, and an
/// optional journal checkpoints completed rows so an interrupted sweep
/// can resume without re-simulating (see checkpoint.hpp for the journal
/// format).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/dse/design_point.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/memsim/predecoded_trace.hpp"
#include "gmd/memsim/sampled.hpp"

namespace gmd::tracestore {
class TraceStoreReader;
}  // namespace gmd::tracestore

namespace gmd::dse {

/// Terminal state of one design point in a sweep.
enum class PointOutcome {
  kOk,        ///< Simulated successfully; metrics are valid.
  kFailed,    ///< Simulation (or validation) raised an error.
  kTimedOut,  ///< The per-point wall budget expired mid-simulation.
  kSkipped,   ///< Never simulated (sweep cancelled before its turn).
};

std::string to_string(PointOutcome outcome);

struct SweepRow {
  DesignPoint point;
  memsim::MemoryMetrics metrics;  ///< Valid only when ok().

  PointOutcome outcome = PointOutcome::kOk;
  ErrorCode error_code = ErrorCode::kUnspecified;  ///< Set when !ok().
  std::string error;         ///< One-line failure message; empty when ok.
  std::uint32_t attempts = 1;  ///< Simulation attempts made (retry policy).

  /// Per-metric confidence intervals, indexed like
  /// memsim::MemoryMetrics::metric_names(); non-empty exactly when the
  /// row came from chunk-sampled simulation (then `metrics` holds the
  /// scaled estimates).  A sampled sweep's hybrid points run exhaustive
  /// and carry degenerate (point) intervals.
  std::vector<memsim::MetricInterval> metric_ci;

  bool ok() const { return outcome == PointOutcome::kOk; }
  bool sampled() const { return !metric_ci.empty(); }
};

/// What run_sweep does when a point fails.
enum class FailurePolicy {
  /// Rethrow the first failure and abandon the sweep — the historical
  /// behavior, and the right default for tests where any failure is a
  /// bug.  All worker errors remain visible via
  /// ThreadPool::collected_errors() semantics inside run_sweep.
  kFailFast,
  /// Record the failure on its row (typed outcome + message) and keep
  /// sweeping; partial results survive a bad point.
  kSkip,
  /// Like kSkip, but transient failures (simulation/trace/io/
  /// unspecified codes) are retried, at once, up to max_attempts.
  /// Config errors, timeouts, and cancellations are not
  /// retried: they are deterministic or already budget-bounded.
  kRetry,
};

std::string to_string(FailurePolicy policy);

struct SweepOptions {
  std::size_t num_threads = 0;  ///< 0: hardware concurrency.
  bool log_progress = false;

  // --- simulation speed tier -------------------------------------------
  /// Fraction of trace chunks each single-technology point simulates,
  /// in (0, 1].  1.0 (the default) = exhaustive.  Below 1, points run
  /// chunk-sampled simulation: rows carry scaled estimates plus
  /// confidence intervals (SweepRow::metric_ci), the journal persists
  /// the intervals, and the sampling parameters below become part of
  /// the journal identity.  Hybrid points are always exhaustive (logged
  /// once per sweep).
  double sample_fraction = 1.0;
  /// Seed of the sampled chunk subset (deterministic per point).
  std::uint64_t sample_seed = 1;
  /// Warmup chunks replayed uncounted before each sampled window.
  std::uint32_t sample_warmup_chunks = 1;
  /// Window size in events when sampling an in-memory trace feed; a
  /// GMDT store feed samples the store's native chunk index instead.
  std::size_t sampling_chunk_events = 10000;

  // --- fault tolerance -------------------------------------------------
  /// Every point is validated before any simulation runs; config
  /// errors are rejected (fail-fast) or recorded (skip/retry).
  FailurePolicy failure_policy = FailurePolicy::kFailFast;
  /// Maximum simulation attempts per point under kRetry (>= 1).
  std::uint32_t max_attempts = 3;
  /// Per-point wall budget; a point still running past it is cancelled
  /// cooperatively (outcome kTimedOut).  0 = unlimited.
  std::chrono::milliseconds point_wall_budget{0};
  /// Sweep-wide cancellation token: once cancelled, in-flight points
  /// unwind (kCancelled) and unstarted points are marked kSkipped.
  /// Non-owning; must outlive run_sweep.
  Deadline* cancel = nullptr;
  /// Deterministic fault injection for tests: invoked before every
  /// simulation attempt with (point index, 1-based attempt).  Throwing
  /// from the hook is treated exactly like the simulation failing, so
  /// every policy path is testable without real crashes.
  std::function<void(std::size_t, std::uint32_t)> fault_hook;
  /// Test hook: invoked once per pool task, on its worker thread and
  /// before the task builds its feed, with the task's point indices.  A
  /// task of exhaustive points builds one Feed, so the calls count the
  /// sweep's feed builds.
  std::function<void(std::span<const std::size_t>)> task_hook;

  // --- streaming -------------------------------------------------------
  /// Invoked once per point when its row reaches a terminal state — ok,
  /// failed, or timed-out (never for skipped/cancelled points, which a
  /// later run must re-simulate).  The distributed sweep worker uses
  /// this to journal rows under their global point indices as they
  /// complete.  May be called concurrently from sweep worker threads;
  /// the callback must be thread-safe.  Exceptions thrown from the sink
  /// propagate out of the sweep.
  std::function<void(std::size_t, const SweepRow&)> row_sink;

  // --- checkpoint / resume ---------------------------------------------
  /// When non-empty, completed rows are journaled here (one appended,
  /// synced record per row) so a killed sweep loses at most the
  /// in-flight points.
  std::string checkpoint_path;
  /// Load an existing journal at checkpoint_path and skip its completed
  /// points after verifying the header hash of (trace checksum, point
  /// list).  A missing journal file simply starts fresh.  A torn or
  /// corrupt tail costs only the records it destroyed; a journal written
  /// for a different trace/point list starts fresh.  Both warn with a
  /// typed code — stale rows are never silently reused and a bad
  /// journal never aborts the sweep.
  bool resume = false;
};

/// Simulates every design point against the same memory trace.
/// Row order matches `points` order.
std::vector<SweepRow> run_sweep(std::span<const DesignPoint> points,
                                std::span<const cpusim::MemoryEvent> trace,
                                const SweepOptions& options = {});

/// Store-fed sweep: replays a GMDT trace store without ever
/// materializing the whole event vector — each group task builds its
/// Feed (one stream, or a hybrid's two routed sides) chunk by chunk
/// straight off the shared mapping, and a sampled point decodes one
/// store chunk at a time.  Peak memory is then the mapping plus at most
/// num_threads live feeds, however many groups the point list spans.
/// Metrics are bit-identical to the span overload on the same events.
std::vector<SweepRow> run_sweep(std::span<const DesignPoint> points,
                                const tracestore::TraceStoreReader& store,
                                const SweepOptions& options = {});

/// The predecoded streams an exhaustive point replays: `single` for a
/// single-technology point, or `dram` and `nvm`, the routed sides of
/// memsim::predecode_hybrid, for a hybrid one; the other member(s) stay
/// empty.  One feed serves every point with its `key` (see feed_key),
/// whatever the point's clocks and timing.
struct Feed {
  std::string key;  ///< feed_key of the points this feed serves.
  memsim::PredecodedTrace single;
  memsim::PredecodedTrace dram;
  memsim::PredecodedTrace nvm;
};

/// The clock-free key of the Feed an exhaustive `point` replays:
/// memsim::PredecodedTrace::key of its single_config(), or
/// memsim::hybrid_trace_key of its hybrid_config().  Points with equal
/// keys share one feed, whatever their clocks and timing.
std::string feed_key(const DesignPoint& point);

/// True when `point` replays a Feed under `sample_fraction`; false when
/// it samples raw trace chunks instead (a single-technology point below
/// 1 — hybrid points are always exhaustive).
bool replays_feed(const DesignPoint& point, double sample_fraction);

/// Builds `point`'s Feed from a GMDT store, streaming chunk by chunk
/// off the mapping without materializing the event vector.  The one
/// store-to-feed path: the sweep's group tasks, simulate_point and the
/// query service's trace library all build with it.
Feed build_feed(const DesignPoint& point,
                const tracestore::TraceStoreReader& store);

/// The in-memory form of build_feed; the same feed for the same events.
Feed build_feed(const DesignPoint& point,
                std::span<const cpusim::MemoryEvent> trace);

/// Options for one single-point simulation — the unit of work the DSE
/// query service schedules.  The sampling fields mirror SweepOptions;
/// a store is always sampled on its own chunk index, so there is no
/// window size.
struct SimulateOptions {
  /// Fraction of trace chunks to simulate, in (0, 1].  Below 1 the
  /// result carries scaled estimates plus confidence intervals
  /// (MetricsRow::metric_ci); hybrid points are always exhaustive and
  /// carry degenerate intervals.
  double sample_fraction = 1.0;
  std::uint64_t sample_seed = 1;
  std::uint32_t sample_warmup_chunks = 1;
  /// Cooperative cancellation / wall budget, polled inside the channel
  /// service loops.  Non-owning; may be null.
  Deadline* deadline = nullptr;
  /// A warm Feed (e.g. a service's shared handle) the point replays
  /// instead of building its own from the store.  It must have been
  /// built for the point's feed_key (Error(kConfig) otherwise); ignored
  /// when the point samples chunks.  Non-owning; must outlive the call.
  const Feed* feed = nullptr;
};

/// One point's simulation result: metrics, plus per-metric confidence
/// intervals exactly when sampled — the same shape as SweepRow's metric
/// fields, without the sweep bookkeeping.
struct MetricsRow {
  memsim::MemoryMetrics metrics;
  std::vector<memsim::MetricInterval> metric_ci;

  bool sampled() const { return !metric_ci.empty(); }
};

/// Simulates one design point against a GMDT store.  This is exactly
/// the sweep runner's per-point body factored out — run_sweep and the
/// query service share this one code path — so for the same (store,
/// point, sampling geometry) the returned metrics are bit-identical to
/// the SweepRow a fresh run_sweep over the same store would produce.
/// Validates the point (Error(kConfig)) before simulating.
MetricsRow simulate_point(const tracestore::TraceStoreReader& store,
                          const DesignPoint& point,
                          const SimulateOptions& options = {});

/// Simulates a single point over an in-memory trace (exhaustive,
/// serial; same code path as above with a raw-span feed).
memsim::MemoryMetrics simulate_point(
    const DesignPoint& point, std::span<const cpusim::MemoryEvent> trace);

/// Outcome tallies over a sweep's rows — the "sweep" part of
/// PipelineResult::summary().
struct SweepHealth {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t skipped = 0;
  std::size_t retries = 0;  ///< Extra attempts beyond the first, summed.
  /// Non-ok point counts keyed by ErrorCode enum value.
  std::vector<std::size_t> by_code;

  bool all_ok() const { return ok == total; }
  /// e.g. "416 points: 414 ok, 1 failed, 1 timed-out (2 retries;
  /// failures: simulation=1, timeout=1)".
  std::string summary() const;
};

SweepHealth summarize_health(std::span<const SweepRow> rows);

}  // namespace gmd::dse
