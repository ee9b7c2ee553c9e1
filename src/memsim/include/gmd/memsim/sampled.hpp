#pragma once

/// \file sampled.hpp
/// Chunk-sampled simulation with error bounds: simulate a deterministic,
/// seeded subset of a trace's chunks — each preceded by a warmup prefix
/// that primes bank/row-buffer/refresh state without being counted — and
/// scale the measured counters to full-trace estimates with confidence
/// intervals.  This is classic cluster sampling over the chunk index:
/// extensive metrics (reads, writes, energy, time) use the expansion
/// estimator N·mean, intensive metrics (latencies, power, bandwidth) use
/// ratio estimators, and both carry finite-population-corrected
/// Student-t intervals.  The trade is explicit: a 10% fraction buys ~10x
/// wall-time reduction and reports how much accuracy it cost.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/metrics.hpp"

namespace gmd::memsim {

/// Chunk-granular view of an event trace, the unit of sampling.  memsim
/// deliberately does not link the trace-store library; adapters live
/// with the containers (SpanChunkedTrace below for in-memory traces, a
/// TraceStoreReader adapter in gmd::dse for GMDT files, whose native
/// chunk index maps 1:1 onto this interface).
class ChunkedTrace {
 public:
  virtual ~ChunkedTrace() = default;

  virtual std::size_t num_chunks() const = 0;

  /// Events of chunk `index`, in tick order.  The span is valid until
  /// the next chunk() call (implementations may reuse a decode buffer).
  virtual std::span<const cpusim::MemoryEvent> chunk(std::size_t index) = 0;
};

/// Fixed-size chunking over an in-memory event span (non-owning).  The
/// last chunk holds the remainder.
class SpanChunkedTrace final : public ChunkedTrace {
 public:
  SpanChunkedTrace(std::span<const cpusim::MemoryEvent> events,
                   std::size_t chunk_events);

  std::size_t num_chunks() const override;
  std::span<const cpusim::MemoryEvent> chunk(std::size_t index) override;

 private:
  std::span<const cpusim::MemoryEvent> events_;
  std::size_t chunk_events_;
};

/// Parameters of a chunk-sampled run.
struct SampledSimOptions {
  /// Target fraction of chunks to simulate, in (0, 1].  The realized
  /// sample is at least min_sampled_chunks; a sample covering every
  /// chunk degenerates to one exact exhaustive run.
  double fraction = 0.1;

  /// Seed for the chunk subset (deterministic: same seed + same trace =
  /// same sample).
  std::uint64_t seed = 1;

  /// Chunks replayed before each sampled window to prime bank,
  /// row-buffer, and refresh state; their counters are not measured.
  /// One chunk of warmup is enough for the controller-level state here
  /// (row buffers and queues turn over within a few thousand requests);
  /// raise it for very small chunks.
  std::uint32_t warmup_chunks = 1;

  /// Lower bound on the sample size.  Student-t intervals need a
  /// credible variance estimate, and with fewer than ~10 clusters the
  /// estimate is noisy enough that coverage degrades no matter the
  /// quantile; 12 keeps the statistical contract honest while staying
  /// cheap (at least 2 is always enforced).
  std::size_t min_sampled_chunks = 12;

  /// Joint two-sided confidence level over all six reported metric
  /// intervals, in (0, 1): with probability `confidence`, *every*
  /// interval contains its exhaustive value.  Each per-metric interval
  /// is therefore computed at the Bonferroni-corrected level
  /// 1 - (1 - confidence)/6.
  double confidence = 0.95;

  /// Floor on each interval's half-width as a fraction of the estimate.
  /// The steady-state windows make cluster sampling unbiased to first
  /// order (see MemorySystem::simulate_window()), but window
  /// boundaries still leave an O(queue_depth / chunk_events) residue
  /// the t-interval cannot see when the backlog is not stationary; the
  /// floor absorbs it.
  double min_relative_halfwidth = 0.01;

  void validate() const;
};

/// One metric's confidence interval.
struct MetricInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Result of a sampled run: full-trace estimates in MemoryMetrics form
/// plus one interval per paper metric.
struct SampledMetrics {
  /// Scaled estimates.  The six paper metrics are the estimators
  /// described in sampled.cpp; the context fields (total_reads,
  /// execution_seconds, energies, row hits/misses) are expansion
  /// estimates rounded where integral.  Endurance fields stay zero —
  /// max/unique counts do not scale linearly and are not estimated.
  MemoryMetrics estimate;

  /// Confidence intervals, indexed like MemoryMetrics::metric_names().
  std::array<MetricInterval, 6> ci{};

  std::size_t chunks_total = 0;
  std::size_t chunks_sampled = 0;
  std::uint64_t events_simulated = 0;  ///< Including warmup replay.
  std::uint64_t events_measured = 0;   ///< Inside measured windows.

  /// True when the sample covered every chunk: the run was one exact
  /// exhaustive simulation and every interval is a point.
  bool exhaustive = false;
};

/// Runs the chunk-sampled simulation of `trace` under `config`.
/// Deterministic for fixed (config, trace, options).  Each window
/// predecodes its warmup and window chunks into one record stream and
/// replays it through MemorySystem::simulate_window; a sample covering
/// every chunk predecodes the whole trace and replays it once.
/// Respects config.sim.deadline between and inside windows.
SampledMetrics simulate_sampled(const MemoryConfig& config,
                                ChunkedTrace& trace,
                                const SampledSimOptions& options);

}  // namespace gmd::memsim
