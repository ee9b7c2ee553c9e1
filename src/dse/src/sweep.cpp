#include "gmd/dse/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
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
/// A store feed is never materialized: every predecode streams chunks
/// off the shared mapping.
class TraceAccess {
 public:
  explicit TraceAccess(std::span<const cpusim::MemoryEvent> events)
      : events_(events) {}
  explicit TraceAccess(const tracestore::TraceStoreReader& store)
      : store_(&store) {}

  JournalKey journal_key(std::span<const DesignPoint> points) const {
    return store_ != nullptr ? make_journal_key(points, *store_)
                             : make_journal_key(points, events_);
  }

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

  /// Builds `point`'s Feed over the whole trace.  Safe to call from
  /// pool tasks.
  Feed feed(const DesignPoint& point) const {
    return store_ != nullptr ? build_feed(point, *store_)
                             : build_feed(point, events_);
  }

 private:
  std::span<const cpusim::MemoryEvent> events_;
  const tracestore::TraceStoreReader* store_ = nullptr;
};

/// One pool task of a sweep.  A trace group's members (every exhaustive
/// point sharing one feed_key, e.g. every clock pair and NVM tRCD
/// variant of a channel count) replay one Feed, built from the first
/// member when the task starts and dropped when it returns, so at most
/// one feed per pool thread is ever live.  A large group is split into
/// several such tasks (see run_sweep_impl).  A sampled single-
/// technology point replays raw chunks and is a task of its own.
struct SweepTask {
  std::vector<std::size_t> members;  ///< Point indices, in point order.
  std::uint64_t cost = 0;            ///< Summed point_cost of the members.
};

/// The trace source one point simulation consumes: `chunked` for a
/// point that samples chunks, else `feed`, or the `raw` events (the
/// undecoded reference path) when no feed is set.
struct PointFeed {
  std::span<const cpusim::MemoryEvent> raw;
  const Feed* feed = nullptr;
  memsim::ChunkedTrace* chunked = nullptr;
};

/// The per-point simulation body shared by run_sweep and the public
/// simulate_point overloads: one implementation is what makes service
/// answers bit-identical to sweep rows.
void simulate_point_into(const DesignPoint& point,
                         const SimulateOptions& options, const PointFeed& feed,
                         MetricsRow& row) {
  if (!replays_feed(point, options.sample_fraction)) {
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
    row.metrics = feed.feed != nullptr
                      ? memsim::HybridMemory::simulate(config, feed.feed->dram,
                                                       feed.feed->nvm)
                      : memsim::HybridMemory::simulate(config, feed.raw);
  } else {
    memsim::MemoryConfig config = point.single_config();
    config.sim.deadline = options.deadline;
    row.metrics =
        feed.feed != nullptr
            ? memsim::MemorySystem::simulate(config, feed.feed->single)
            : memsim::MemorySystem::simulate(config, feed.raw);
  }
  // A sampled sweep's exhaustive rows (hybrids) carry point intervals
  // so every row of the sweep reports in the same shape.
  if (options.sample_fraction < 1.0) {
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
std::uint64_t point_cost(const DesignPoint& point) {
  return point.kind == MemoryKind::kHybrid ? 2 : 1;
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

std::string feed_key(const DesignPoint& point) {
  return point.kind == MemoryKind::kHybrid
             ? memsim::hybrid_trace_key(point.hybrid_config())
             : memsim::PredecodedTrace::key(point.single_config());
}

bool replays_feed(const DesignPoint& point, double sample_fraction) {
  return sample_fraction >= 1.0 || point.kind == MemoryKind::kHybrid;
}

namespace {

/// The one feed builder behind both public overloads: `open` starts a
/// fresh pass over the trace's chunks (a hybrid takes two: one counts
/// each side, one routes and decodes), and `events` sizes a single
/// stream.
Feed build_feed(
    const DesignPoint& point,
    const std::function<memsim::PredecodedTrace::EventChunkSource()>& open,
    std::size_t events) {
  Feed feed;
  feed.key = feed_key(point);
  if (point.kind == MemoryKind::kHybrid) {
    std::tie(feed.dram, feed.nvm) =
        memsim::predecode_hybrid(point.hybrid_config(), open);
  } else {
    feed.single =
        memsim::PredecodedTrace::build(point.single_config(), open(), events);
  }
  return feed;
}

}  // namespace

Feed build_feed(const DesignPoint& point,
                const tracestore::TraceStoreReader& store) {
  return build_feed(
      point,
      [&store] {
        return memsim::PredecodedTrace::EventChunkSource(
            [it = tracestore::ChunkIterator(store)]() mutable
                -> std::span<const cpusim::MemoryEvent> {
              return it.next() ? it.events()
                               : std::span<const cpusim::MemoryEvent>{};
            });
      },
      static_cast<std::size_t>(store.num_events()));
}

Feed build_feed(const DesignPoint& point,
                std::span<const cpusim::MemoryEvent> trace) {
  return build_feed(
      point,
      [trace] {
        return memsim::PredecodedTrace::EventChunkSource(
            [chunk = trace]() mutable {
              return std::exchange(chunk,
                                   std::span<const cpusim::MemoryEvent>{});
            });
      },
      trace.size());
}

MetricsRow simulate_point(const tracestore::TraceStoreReader& store,
                          const DesignPoint& point,
                          const SimulateOptions& options) {
  GMD_REQUIRE(options.sample_fraction > 0.0 && options.sample_fraction <= 1.0,
              "sample_fraction must be in (0, 1], got "
                  << options.sample_fraction);
  validate(point);

  // A sampled point samples the GMDT native chunk index, exactly like a
  // sampled sweep over the same store; any other point replays a Feed,
  // built here off the shared mapping unless the caller brings one.
  PointFeed feed;
  StoreChunkedTrace chunked(store);
  Feed local;
  if (!replays_feed(point, options.sample_fraction)) {
    feed.chunked = &chunked;
  } else if (options.feed != nullptr) {
    const std::string key = feed_key(point);
    GMD_REQUIRE_AS(ErrorCode::kConfig, options.feed->key == key,
                   "a feed built for '" << options.feed->key
                                        << "' cannot replay point "
                                        << point.id() << " ('" << key
                                        << "')");
    feed.feed = options.feed;
  } else {
    local = build_feed(point, store);
    feed.feed = &local;
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
      // A validation reject is a terminal row: the sink must see it, or
      // a distributed shard holding an invalid point would count as
      // never-run and be re-issued forever.
      if (options.row_sink) options.row_sink(i, rows[i]);
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

  // Group points by feed_key.  Decode (and, for the static hybrids
  // DesignPoint builds, routing) depends only on the mapping geometry,
  // so all members of a group — every clock pair and NVM tRCD variant
  // of a channel count — replay one shared Feed; replay stamps cycles
  // under each member's clocks.  Every point that replays a feed joins
  // a group.
  std::vector<SweepTask> groups;
  std::unordered_map<std::string, std::size_t> group_of_key;
  std::vector<SweepTask> tasks;
  std::size_t unsettled = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (settled[i]) continue;  // nothing left to simulate
    ++unsettled;
    // Sampled single-technology points replay raw event chunks, not a
    // whole-trace feed — a shared predecode would be wasted work for
    // them.
    if (!replays_feed(points[i], options.sample_fraction)) {
      tasks.push_back({{i}, point_cost(points[i])});
      continue;
    }
    const auto [it, inserted] =
        group_of_key.emplace(feed_key(points[i]), groups.size());
    if (inserted) groups.emplace_back();
    SweepTask& group = groups[it->second];
    group.members.push_back(i);
    group.cost += point_cost(points[i]);
  }

  // One group is one pool task, unless it costs more than one thread's
  // share of the sweep's total cost: then it splits into as many
  // interleaved pieces of equal cost (a group's members all cost the
  // same) as the shares it spans, never more pieces than members.  Each
  // piece is a task that builds its own copy of the stream, so the few
  // clock-free groups still spread over every thread, and each thread
  // still holds one live stream at a time.  Pieces of about equal cost
  // fill the threads evenly only when their count is a multiple of the
  // thread count, so the costliest pieces split further until it is (or
  // no group has a member left to give).  On the paper grid at 4
  // threads the two single-technology groups (112 points each) and the
  // two hybrid groups (96 points, cost 192 each) become eight tasks; at
  // one thread nothing splits.
  const std::uint64_t threads = pool.size();
  std::uint64_t total_cost = 0;
  for (const SweepTask& task : tasks) total_cost += task.cost;
  for (const SweepTask& group : groups) total_cost += group.cost;
  std::vector<std::size_t> pieces(groups.size());
  std::size_t task_count = tasks.size();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    pieces[g] = std::min<std::size_t>(
        groups[g].members.size(),
        (groups[g].cost * threads + total_cost - 1) / total_cost);
    task_count += pieces[g];
  }
  while (task_count % threads != 0) {
    std::size_t split = groups.size();  // costliest piece that can split
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (pieces[g] < groups[g].members.size() &&
          (split == groups.size() ||
           groups[g].cost * pieces[split] > groups[split].cost * pieces[g])) {
        split = g;
      }
    }
    if (split == groups.size()) break;
    ++pieces[split];
    ++task_count;
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SweepTask& group = groups[g];
    if (pieces[g] == 1) {
      tasks.push_back(std::move(group));
      continue;
    }
    const std::uint64_t member_cost = group.cost / group.members.size();
    for (std::size_t p = 0; p < pieces[g]; ++p) {
      SweepTask& piece = tasks.emplace_back();
      for (std::size_t k = p; k < group.members.size(); k += pieces[g]) {
        piece.members.push_back(group.members[k]);
      }
      piece.cost = member_cost * piece.members.size();
    }
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
    }
  };

  // One task's run: build its feed (members share a feed_key, so the
  // first member's is every member's), replay its members in point
  // order, drop the feed.  The feed is built outside execute()'s
  // per-point try/catch, so a trace that cannot be predecoded fails the
  // whole sweep under every policy instead of turning into failed rows.
  std::atomic<std::size_t> done{0};
  const auto run_task = [&](const SweepTask& task) {
    if (options.task_hook) options.task_hook(task.members);
    const DesignPoint& first = points[task.members.front()];
    PointFeed feed;
    Feed built;
    std::unique_ptr<memsim::ChunkedTrace> chunked;
    if (!replays_feed(first, options.sample_fraction)) {
      chunked = access.chunked(options.sampling_chunk_events);
      feed.chunked = chunked.get();
    } else {
      built = access.feed(first);
      feed.feed = &built;
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
