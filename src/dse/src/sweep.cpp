#include "gmd/dse/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "gmd/common/hash.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/predecoded_trace.hpp"
#include "gmd/memsim/sampled.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::dse {

namespace {

/// memsim::ChunkedTrace over a GMDT store's native chunk index; decodes
/// one chunk at a time into a reusable buffer (chunk-sized memory, like
/// ChunkIterator, but with the random access sampling needs).
class StoreChunkedTrace final : public memsim::ChunkedTrace {
 public:
  explicit StoreChunkedTrace(const tracestore::TraceStoreReader& store)
      : store_(&store) {}

  std::size_t num_chunks() const override { return store_->num_chunks(); }
  std::span<const cpusim::MemoryEvent> chunk(std::size_t index) override {
    store_->decode_chunk(index, buffer_);
    return buffer_;
  }

 private:
  const tracestore::TraceStoreReader* store_;
  std::vector<cpusim::MemoryEvent> buffer_;
};

/// Uniform view over the two trace feeds (in-memory span / GMDT store).
/// A store-fed sweep only decodes the full event vector when a hybrid
/// group needs it; single-technology groups predecode chunk-by-chunk
/// off the shared mapping instead.
class TraceAccess {
 public:
  explicit TraceAccess(std::span<const cpusim::MemoryEvent> events)
      : events_(events), materialized_(true) {}
  explicit TraceAccess(const tracestore::TraceStoreReader& store)
      : store_(&store) {}

  std::size_t num_events() const {
    return store_ != nullptr ? static_cast<std::size_t>(store_->num_events())
                             : events_.size();
  }

  JournalKey journal_key(std::span<const DesignPoint> points) const {
    return store_ != nullptr ? make_journal_key(points, *store_)
                             : make_journal_key(points, events_);
  }

  /// Full in-memory event view.  For a store feed the first call
  /// decodes every chunk in parallel on `pool`; must not be called from
  /// inside a pool task (use raw() there, after materializing here).
  std::span<const cpusim::MemoryEvent> materialize(ThreadPool& pool) {
    if (!materialized_) {
      storage_ = store_->read_all(pool);
      events_ = storage_;
      materialized_ = true;
    }
    return events_;
  }

  /// The materialized view; empty unless materialize() ran (or the feed
  /// was a span to begin with).
  std::span<const cpusim::MemoryEvent> raw() const { return events_; }

  /// Chunk view for sampled simulation: a store feed samples the GMDT
  /// native chunk index (no materialization), an in-memory feed gets
  /// fixed-size windows of `span_chunk_events`.  Returns a fresh object
  /// per call — chunk() reuses an internal decode buffer, so concurrent
  /// points must not share one.
  std::unique_ptr<memsim::ChunkedTrace> chunked(
      std::size_t span_chunk_events) const {
    if (store_ != nullptr) {
      return std::make_unique<StoreChunkedTrace>(*store_);
    }
    return std::make_unique<memsim::SpanChunkedTrace>(events_,
                                                      span_chunk_events);
  }

  /// Predecodes the whole trace for `config` without materializing:
  /// streams chunks off the store mapping when not yet materialized.
  /// Safe to call from pool tasks.
  memsim::PredecodedTrace predecode(const memsim::MemoryConfig& config) const {
    return materialized_ ? memsim::PredecodedTrace::build(config, events_)
                         : dse::predecode(config, *store_);
  }

 private:
  std::span<const cpusim::MemoryEvent> events_;
  const tracestore::TraceStoreReader* store_ = nullptr;
  std::vector<cpusim::MemoryEvent> storage_;
  bool materialized_ = false;
};

/// One pool task of a sweep.  A trace group's members (every exhaustive
/// point sharing one decode geometry, e.g. every NVM tRCD variant of a
/// sweep cell) replay one predecoded stream, built when the task starts
/// and dropped when it returns, so at most one stream per pool thread is
/// ever live.  A sampled single-technology point replays raw chunks and
/// is a task of its own.
struct SweepTask {
  enum class Feed { kChunked, kPredecoded, kHybrid };
  Feed feed = Feed::kPredecoded;
  memsim::MemoryConfig single;  ///< Decode geometry of a kPredecoded group.
  memsim::HybridConfig hybrid;  ///< Decode and routing of a kHybrid group.
  std::vector<std::size_t> members;  ///< Point indices, in point order.
  double cost = 0.0;                 ///< Summed point_cost of the members.
};

/// The trace feed one point simulation consumes.  Exactly one source is
/// set per mode: `chunked` for sampled single-technology points,
/// `predecoded` (or `raw`) for exhaustive single-technology points,
/// `dram_side`+`nvm_side` (or `raw`) for hybrid points.
struct PointFeed {
  std::span<const cpusim::MemoryEvent> raw;
  const memsim::PredecodedTrace* predecoded = nullptr;
  const memsim::PredecodedTrace* dram_side = nullptr;
  const memsim::PredecodedTrace* nvm_side = nullptr;
  memsim::ChunkedTrace* chunked = nullptr;
};

/// The per-point simulation body shared by run_sweep and the public
/// simulate_point overloads: one implementation is what makes service
/// answers bit-identical to sweep rows.
void simulate_point_into(const DesignPoint& point,
                         const SimulateOptions& options, const PointFeed& feed,
                         MetricsRow& row) {
  const bool sampling = options.sample_fraction < 1.0;
  if (sampling && point.kind != MemoryKind::kHybrid) {
    GMD_ASSERT(feed.chunked != nullptr, "sampled point needs a chunk feed");
    memsim::MemoryConfig config = point.single_config();
    config.sim.deadline = options.deadline;
    memsim::SampledSimOptions sopt;
    sopt.fraction = options.sample_fraction;
    sopt.seed = options.sample_seed;
    sopt.warmup_chunks = options.sample_warmup_chunks;
    const memsim::SampledMetrics sampled =
        memsim::simulate_sampled(config, *feed.chunked, sopt);
    row.metrics = sampled.estimate;
    row.metric_ci.assign(sampled.ci.begin(), sampled.ci.end());
    return;
  }
  if (point.kind == MemoryKind::kHybrid) {
    memsim::HybridConfig config = point.hybrid_config();
    config.dram.sim.deadline = options.deadline;
    config.nvm.sim.deadline = options.deadline;
    row.metrics = feed.dram_side != nullptr
                      ? memsim::HybridMemory::simulate(config, *feed.dram_side,
                                                       *feed.nvm_side)
                      : memsim::HybridMemory::simulate(config, feed.raw);
  } else {
    memsim::MemoryConfig config = point.single_config();
    config.sim.deadline = options.deadline;
    row.metrics = feed.predecoded != nullptr
                      ? memsim::MemorySystem::simulate(config, *feed.predecoded)
                      : memsim::MemorySystem::simulate(config, feed.raw);
  }
  // A sampled sweep's exhaustive rows (hybrids) carry point intervals
  // so every row of the sweep reports in the same shape.
  if (sampling) {
    const std::vector<double> values = row.metrics.metric_values();
    row.metric_ci.resize(values.size());
    for (std::size_t m = 0; m < values.size(); ++m) {
      row.metric_ci[m] = {values[m], values[m]};
    }
  }
}

/// Relative simulation cost of one point; a task's cost sums its
/// members', and tasks run most-expensive-first so the dynamic scheduler
/// never strands a long task at the tail of the sweep.  Hybrid points
/// drive two memory systems.
double point_cost(const DesignPoint& point) {
  return point.kind == MemoryKind::kHybrid ? 2.0 : 1.0;
}

/// Classifies a caught failure: errors raised mid-simulation without an
/// explicit code are simulation failures; std::exception likewise.
ErrorCode classify_code(const Error& e) {
  return e.code() == ErrorCode::kUnspecified ? ErrorCode::kSimulation
                                             : e.code();
}

PointOutcome outcome_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTimeout:
      return PointOutcome::kTimedOut;
    case ErrorCode::kCancelled:
      return PointOutcome::kSkipped;
    default:
      return PointOutcome::kFailed;
  }
}

}  // namespace

std::string to_string(PointOutcome outcome) {
  switch (outcome) {
    case PointOutcome::kOk:
      return "ok";
    case PointOutcome::kFailed:
      return "failed";
    case PointOutcome::kTimedOut:
      return "timed-out";
    case PointOutcome::kSkipped:
      return "skipped";
  }
  return "?";
}

std::string to_string(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kFailFast:
      return "fail-fast";
    case FailurePolicy::kSkip:
      return "skip";
    case FailurePolicy::kRetry:
      return "retry";
  }
  return "?";
}

memsim::MemoryMetrics simulate_point(
    const DesignPoint& point, std::span<const cpusim::MemoryEvent> trace) {
  PointFeed feed;
  feed.raw = trace;
  MetricsRow row;
  simulate_point_into(point, SimulateOptions{}, feed, row);
  return row.metrics;
}

memsim::PredecodedTrace predecode(const memsim::MemoryConfig& config,
                                  const tracestore::TraceStoreReader& store) {
  tracestore::ChunkIterator it(store);
  return memsim::PredecodedTrace::build(
      config,
      [&it]() -> std::span<const cpusim::MemoryEvent> {
        return it.next() ? it.events()
                         : std::span<const cpusim::MemoryEvent>{};
      },
      static_cast<std::size_t>(store.num_events()));
}

MetricsRow simulate_point(const tracestore::TraceStoreReader& store,
                          const DesignPoint& point,
                          const SimulateOptions& options) {
  GMD_REQUIRE(options.sample_fraction > 0.0 && options.sample_fraction <= 1.0,
              "sample_fraction must be in (0, 1], got "
                  << options.sample_fraction);
  GMD_REQUIRE(options.sampling_chunk_events > 0,
              "sampling_chunk_events must be positive");
  validate(point);

  const bool sampling =
      options.sample_fraction < 1.0 && point.kind != MemoryKind::kHybrid;
  PointFeed feed;
  std::unique_ptr<memsim::ChunkedTrace> chunked;
  std::vector<cpusim::MemoryEvent> storage;
  memsim::PredecodedTrace local;
  if (sampling) {
    // A store feed samples the GMDT native chunk index, exactly like a
    // sampled sweep over the same store.
    chunked = std::make_unique<StoreChunkedTrace>(store);
    feed.chunked = chunked.get();
  } else if (point.kind == MemoryKind::kHybrid) {
    if (!options.raw_events.empty()) {
      feed.raw = options.raw_events;
    } else {
      storage = store.read_all();
      feed.raw = storage;
    }
  } else if (options.predecoded != nullptr) {
    feed.predecoded = options.predecoded;
  } else if (!options.raw_events.empty()) {
    feed.raw = options.raw_events;
  } else {
    // Stream-predecode off the shared mapping — the sweep's grouped
    // path, without materializing the raw event vector.
    local = predecode(point.single_config(), store);
    feed.predecoded = &local;
  }

  MetricsRow row;
  simulate_point_into(point, options, feed, row);
  return row;
}

SweepHealth summarize_health(std::span<const SweepRow> rows) {
  SweepHealth health;
  health.total = rows.size();
  health.by_code.assign(static_cast<std::size_t>(kLastErrorCode) + 1, 0);
  for (const SweepRow& row : rows) {
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
      ++health.by_code[static_cast<std::size_t>(row.error_code)];
    }
    health.retries += row.attempts > 1 ? row.attempts - 1 : 0;
  }
  return health;
}

std::string SweepHealth::summary() const {
  std::ostringstream os;
  os << total << " points: " << ok << " ok";
  if (failed) os << ", " << failed << " failed";
  if (timed_out) os << ", " << timed_out << " timed-out";
  if (skipped) os << ", " << skipped << " skipped";
  if (retries || !all_ok()) {
    os << " (" << retries << (retries == 1 ? " retry" : " retries");
    bool first = true;
    for (std::size_t c = 0; c < by_code.size(); ++c) {
      if (by_code[c] == 0) continue;
      os << (first ? "; failures: " : ", ")
         << to_string(static_cast<ErrorCode>(c)) << "=" << by_code[c];
      first = false;
    }
    os << ")";
  }
  return os.str();
}

namespace {

std::vector<SweepRow> run_sweep_impl(std::span<const DesignPoint> points,
                                     TraceAccess& access,
                                     const SweepOptions& options) {
  const bool fail_fast = options.failure_policy == FailurePolicy::kFailFast;
  GMD_REQUIRE(options.sample_fraction > 0.0 && options.sample_fraction <= 1.0,
              "sample_fraction must be in (0, 1], got "
                  << options.sample_fraction);
  GMD_REQUIRE(options.sampling_chunk_events > 0,
              "sampling_chunk_events must be positive");
  const bool sampling = options.sample_fraction < 1.0;
  std::vector<SweepRow> rows(points.size());

  // Points with a terminal row before simulation starts: rejected by
  // validation, or restored from a resumed checkpoint.
  std::vector<char> settled(points.size(), 0);

  // Upfront validation: a misconfigured point must never cost
  // simulation time (and under fail-fast must abort before any point
  // runs).
  if (options.validate_points) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      try {
        validate(points[i]);
      } catch (const Error& e) {
        if (fail_fast) throw;
        rows[i].point = points[i];
        rows[i].outcome = PointOutcome::kFailed;
        rows[i].error_code = ErrorCode::kConfig;
        rows[i].error = e.what();
        rows[i].attempts = 0;
        settled[i] = 1;
        // A validation reject is a terminal row: the sink must see it,
        // or a distributed shard holding an invalid point would count
        // as never-run and be re-issued forever.
        if (options.row_sink) options.row_sink(i, rows[i]);
      }
    }
  }

  // Checkpoint journal: restore completed rows on resume, then record
  // every newly completed row.
  std::unique_ptr<SweepJournal> journal;
  if (!options.checkpoint_path.empty()) {
    // The sampling geometry joins the journal identity (see
    // sweep_identity): a journal written under one geometry must not
    // resume a sweep under another.
    const JournalKey key =
        sweep_identity(access.journal_key(points), options);
    journal = std::make_unique<SweepJournal>(options.checkpoint_path, key);
    if (options.resume) {
      // load() itself cuts a torn tail back to the last valid record.
      // A journal that still fails to load — written for a different
      // trace/point list, or not a sweep journal — must not take the
      // sweep down with it: the worst case of resuming is
      // re-simulating, so warn with the typed code and start fresh.
      // The first record() then starts a new journal for this sweep.
      std::vector<std::pair<std::size_t, SweepRow>> restored_rows;
      try {
        restored_rows = journal->load();
      } catch (const Error& e) {
        GMD_LOG_WARN << "sweep resume: ignoring unusable journal '"
                     << options.checkpoint_path << "' ["
                     << to_string(e.code()) << "]: " << e.what()
                     << "; starting from scratch";
      }
      std::size_t restored = 0;
      for (auto& [index, row] : restored_rows) {
        if (settled[index]) continue;
        rows[index] = std::move(row);
        rows[index].point = points[index];
        settled[index] = 1;
        ++restored;
      }
      if (restored > 0) {
        GMD_LOG_INFO << "sweep resume: " << restored << "/" << points.size()
                     << " points restored from '" << options.checkpoint_path
                     << "'";
      }
    }
  }

  ThreadPool pool(options.num_threads);

  // Group points by decode geometry.  Decode (and, for the static
  // hybrids DesignPoint builds, routing) depends only on the mapping
  // geometry and clocks, so all members of a group — e.g. every NVM
  // tRCD variant of a sweep cell — replay one shared predecoded request
  // stream.  Every exhaustive point joins a group; each group is one
  // pool task.
  std::vector<SweepTask> tasks;
  std::unordered_map<std::string, std::size_t> task_of_key;
  std::size_t unsettled = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (settled[i]) continue;  // nothing left to simulate
    ++unsettled;
    // Sampled single-technology points replay raw event chunks, not a
    // predecoded whole-trace stream — a shared predecode would be
    // wasted work for them.
    if (sampling && points[i].kind != MemoryKind::kHybrid) {
      SweepTask& task = tasks.emplace_back();
      task.feed = SweepTask::Feed::kChunked;
      task.members.push_back(i);
      task.cost = point_cost(points[i]);
      continue;
    }
    SweepTask candidate;
    std::string key;
    if (points[i].kind == MemoryKind::kHybrid) {
      candidate.feed = SweepTask::Feed::kHybrid;
      candidate.hybrid = points[i].hybrid_config();
      key = memsim::hybrid_trace_key(candidate.hybrid);
    } else {
      candidate.single = points[i].single_config();
      key = memsim::PredecodedTrace::key(candidate.single);
    }
    const auto [it, inserted] = task_of_key.emplace(key, tasks.size());
    if (inserted) tasks.push_back(std::move(candidate));
    SweepTask& task = tasks[it->second];
    task.members.push_back(i);
    task.cost += point_cost(points[i]);
  }

  // A store feed only pays for the full event vector when a hybrid
  // group needs it (the hybrid splitter takes a span).  Must happen
  // before the tasks run — materialize() uses the pool itself.
  if (std::any_of(tasks.begin(), tasks.end(), [](const SweepTask& task) {
        return task.feed == SweepTask::Feed::kHybrid;
      })) {
    access.materialize(pool);
  }

  if (sampling) {
    std::size_t hybrid_points = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!settled[i] && points[i].kind == MemoryKind::kHybrid) {
        ++hybrid_points;
      }
    }
    if (hybrid_points > 0) {
      GMD_LOG_INFO << "sweep sampling: " << hybrid_points
                   << " hybrid points run exhaustively (migration state is "
                      "whole-trace; their rows carry point intervals)";
    }
  }

  // One simulation attempt; `deadline` (nullable) rides in on a config
  // copy and is polled by the channel service loops.  The body itself
  // is simulate_point_into — the same code path the public
  // simulate_point overloads (and through them the query service) run.
  const auto run_point = [&](std::size_t i, const PointFeed& feed,
                             Deadline* deadline, SweepRow& row) {
    SimulateOptions sopt;
    sopt.sample_fraction = options.sample_fraction;
    sopt.sample_seed = options.sample_seed;
    sopt.sample_warmup_chunks = options.sample_warmup_chunks;
    sopt.sampling_chunk_events = options.sampling_chunk_events;
    sopt.deadline = deadline;

    MetricsRow result;
    simulate_point_into(points[i], sopt, feed, result);
    row.metrics = std::move(result.metrics);
    row.metric_ci = std::move(result.metric_ci);
  };

  // Full per-point execution under the failure policy.
  const std::uint32_t max_attempts =
      options.failure_policy == FailurePolicy::kRetry
          ? std::max<std::uint32_t>(1, options.max_attempts)
          : 1;
  const auto execute = [&](std::size_t i, const PointFeed& feed) {
    SweepRow& row = rows[i];
    row.point = points[i];
    for (std::uint32_t attempt = 1;; ++attempt) {
      row.attempts = attempt;
      try {
        // The wall budget starts before the attempt (including the test
        // fault hook), so a hook that stalls past it exercises the same
        // timeout path as a stuck simulation.
        // Each attempt polls its own token: check() amortizes clock reads
        // through a per-token counter, so pool threads must not share the
        // caller's cancel token directly.
        std::optional<Deadline> budget;
        if (options.point_wall_budget.count() > 0) {
          budget.emplace(options.point_wall_budget, options.cancel);
        } else if (options.cancel != nullptr) {
          budget.emplace(options.cancel);
        }
        Deadline* deadline = budget ? &*budget : nullptr;
        if (options.cancel != nullptr && options.cancel->cancelled()) {
          throw Error(ErrorCode::kCancelled, "sweep cancelled");
        }
        if (options.fault_hook) options.fault_hook(i, attempt);
        run_point(i, feed, deadline, row);
        row.outcome = PointOutcome::kOk;
        row.error_code = ErrorCode::kUnspecified;
        row.error.clear();
        if (journal) journal->record(i, row);
        if (options.row_sink) options.row_sink(i, row);
        return;
      } catch (const Error& e) {
        if (fail_fast) throw;
        row.error_code = classify_code(e);
        row.error = e.what();
      } catch (const std::exception& e) {
        if (fail_fast) throw;
        row.error_code = ErrorCode::kSimulation;
        row.error = e.what();
      }
      row.outcome = outcome_for(row.error_code);
      row.metrics = memsim::MemoryMetrics{};
      row.metric_ci.clear();
      const bool retryable = options.failure_policy == FailurePolicy::kRetry &&
                             row.outcome == PointOutcome::kFailed &&
                             row.error_code != ErrorCode::kConfig &&
                             attempt < max_attempts;
      if (!retryable) {
        // Skipped (cancelled) points are not terminal results — a later
        // run must re-simulate them — so the sink never sees them.
        if (options.row_sink && row.outcome != PointOutcome::kSkipped) {
          options.row_sink(i, row);
        }
        return;
      }
      if (options.retry_backoff.count() > 0) {
        std::this_thread::sleep_for(options.retry_backoff * (1u << (attempt - 1)));
      }
    }
  };

  // One task's run: build its feed, replay its members in point order,
  // drop the feed.  The stream is built outside execute()'s per-point
  // try/catch, so a trace that cannot be predecoded fails the whole
  // sweep under every policy instead of turning into failed rows.
  std::atomic<std::size_t> done{0};
  const auto run_task = [&](const SweepTask& task) {
    PointFeed feed;
    memsim::PredecodedTrace trace;
    std::pair<memsim::PredecodedTrace, memsim::PredecodedTrace> sides;
    std::unique_ptr<memsim::ChunkedTrace> chunked;
    switch (task.feed) {
      case SweepTask::Feed::kChunked:
        chunked = access.chunked(options.sampling_chunk_events);
        feed.chunked = chunked.get();
        break;
      case SweepTask::Feed::kPredecoded:
        trace = access.predecode(task.single);
        feed.predecoded = &trace;
        break;
      case SweepTask::Feed::kHybrid:
        sides = memsim::predecode_hybrid(task.hybrid, access.raw());
        feed.dram_side = &sides.first;
        feed.nvm_side = &sides.second;
        break;
    }
    for (const std::size_t i : task.members) {
      execute(i, feed);
      const std::size_t finished = done.fetch_add(1) + 1;
      if (options.log_progress && finished % 50 == 0) {
        GMD_LOG_INFO << "sweep progress: " << finished << "/" << unsettled;
      }
    }
  };

  // Expensive tasks first: with workers claiming one task at a time, a
  // costly group can no longer serialize the tail of the sweep.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const SweepTask& a, const SweepTask& b) {
                     return a.cost > b.cost;
                   });
  pool.parallel_for(0, tasks.size(),
                    [&](std::size_t k) { run_task(tasks[k]); });

  if (options.log_progress && !fail_fast) {
    const SweepHealth health = summarize_health(rows);
    if (!health.all_ok()) {
      GMD_LOG_WARN << "sweep health: " << health.summary();
    }
  }
  return rows;
}

}  // namespace

std::vector<SweepRow> run_sweep(std::span<const DesignPoint> points,
                                std::span<const cpusim::MemoryEvent> trace,
                                const SweepOptions& options) {
  TraceAccess access(trace);
  return run_sweep_impl(points, access, options);
}

std::vector<SweepRow> run_sweep(std::span<const DesignPoint> points,
                                const tracestore::TraceStoreReader& store,
                                const SweepOptions& options) {
  TraceAccess access(store);
  return run_sweep_impl(points, access, options);
}

}  // namespace gmd::dse
