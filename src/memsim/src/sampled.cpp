#include "gmd/memsim/sampled.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/common/stats.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {

SpanChunkedTrace::SpanChunkedTrace(std::span<const cpusim::MemoryEvent> events,
                                   std::size_t chunk_events)
    : events_(events), chunk_events_(chunk_events) {
  GMD_REQUIRE(chunk_events > 0, "chunk_events must be positive");
}

std::size_t SpanChunkedTrace::num_chunks() const {
  return (events_.size() + chunk_events_ - 1) / chunk_events_;
}

std::span<const cpusim::MemoryEvent> SpanChunkedTrace::chunk(
    std::size_t index) {
  GMD_REQUIRE(index < num_chunks(), "chunk index out of range");
  const std::size_t first = index * chunk_events_;
  const std::size_t count = std::min(chunk_events_, events_.size() - first);
  return events_.subspan(first, count);
}

void SampledSimOptions::validate() const {
  GMD_REQUIRE(fraction > 0.0 && fraction <= 1.0,
              "sample fraction must be in (0, 1], got " << fraction);
  GMD_REQUIRE(confidence > 0.0 && confidence < 1.0,
              "confidence must be in (0, 1), got " << confidence);
  GMD_REQUIRE(min_relative_halfwidth >= 0.0,
              "min_relative_halfwidth must be non-negative");
}

namespace {

/// Per-window observations, one entry per sampled chunk.  All doubles:
/// the estimators only ever need sums and residuals.
struct ChunkObservations {
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<double> requests;
  std::vector<double> service_sum;  ///< Sum of service latencies (cycles).
  std::vector<double> total_sum;    ///< Sum of total latencies (cycles).
  std::vector<double> duration_s;
  std::vector<double> dynamic_j;
  std::vector<double> background_j;
  std::vector<double> megabytes;  ///< Data moved, in MB (bandwidth units).
  std::vector<double> row_hits;
  std::vector<double> row_misses;

  void reserve(std::size_t n) {
    for (auto* v : {&reads, &writes, &requests, &service_sum, &total_sum,
                    &duration_s, &dynamic_j, &background_j, &megabytes,
                    &row_hits, &row_misses}) {
      v->reserve(n);
    }
  }
};

/// A point estimate and its confidence half-width.
struct Estimate {
  double value = 0.0;
  double halfwidth = 0.0;
};

double sample_sd(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (const double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(n - 1));
}

/// Expansion (total) estimator for an extensive per-chunk quantity x:
/// T = N·mean(x), half-width t·N·sd(x)/sqrt(n)·sqrt(1 - n/N).
Estimate total_estimate(std::span<const double> x, std::size_t population,
                        double t) {
  const auto n = static_cast<double>(x.size());
  const auto big_n = static_cast<double>(population);
  const double fpc = std::sqrt(std::max(0.0, 1.0 - n / big_n));
  Estimate est;
  est.value = big_n * mean(x);
  est.halfwidth = t * big_n * sample_sd(x) / std::sqrt(n) * fpc;
  return est;
}

/// Ratio estimator R = sum(y)/sum(x) for an intensive quantity (e.g.
/// latency = latency-sum per request): R = mean(y)/mean(x), standard
/// error from the residuals d_k = y_k - R·x_k, the linearization that
/// accounts for the correlated numerator and denominator.
Estimate ratio_estimate(std::span<const double> y, std::span<const double> x,
                        std::size_t population, double t) {
  const auto n = static_cast<double>(x.size());
  const auto big_n = static_cast<double>(population);
  const double xbar = mean(x);
  Estimate est;
  if (xbar == 0.0) return est;
  const double ratio = mean(y) / xbar;
  std::vector<double> residual(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    residual[k] = y[k] - ratio * x[k];
  }
  const double fpc = std::sqrt(std::max(0.0, 1.0 - n / big_n));
  est.value = ratio;
  est.halfwidth = t * fpc * sample_sd(residual) / (std::sqrt(n) * xbar);
  return est;
}

Estimate scale(Estimate est, double factor) {
  est.value *= factor;
  est.halfwidth *= factor;
  return est;
}

MetricInterval interval_around(const Estimate& est, double floor_fraction) {
  const double half =
      std::max(est.halfwidth, floor_fraction * std::abs(est.value));
  return {est.value - half, est.value + half};
}

std::uint64_t to_count(double x) {
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
}

/// Appends chunks [first, end) of `trace` to `builder`; returns the
/// number of events appended.
std::uint64_t append_chunks(PredecodedTrace::Builder& builder,
                            ChunkedTrace& trace, std::size_t first,
                            std::size_t end) {
  std::uint64_t events = 0;
  for (std::size_t k = first; k < end; ++k) {
    const std::span<const cpusim::MemoryEvent> chunk = trace.chunk(k);
    for (const cpusim::MemoryEvent& event : chunk) builder.append(event);
    events += chunk.size();
  }
  return events;
}

/// Every chunk sampled: one exact exhaustive run, degenerate intervals.
SampledMetrics simulate_all(const MemoryConfig& config, ChunkedTrace& trace,
                            std::size_t num_chunks) {
  PredecodedTrace::Builder builder(config);
  const std::uint64_t events = append_chunks(builder, trace, 0, num_chunks);
  SampledMetrics out;
  out.estimate = MemorySystem::simulate(config, std::move(builder).finish());
  out.chunks_total = num_chunks;
  out.chunks_sampled = num_chunks;
  out.events_simulated = events;
  out.events_measured = events;
  out.exhaustive = true;
  const std::vector<double> values = out.estimate.metric_values();
  for (std::size_t i = 0; i < out.ci.size(); ++i) {
    out.ci[i] = {values[i], values[i]};
  }
  return out;
}

}  // namespace

SampledMetrics simulate_sampled(const MemoryConfig& config,
                                ChunkedTrace& trace,
                                const SampledSimOptions& options) {
  options.validate();
  const std::size_t num_chunks = trace.num_chunks();
  GMD_REQUIRE(num_chunks > 0, "cannot sample an empty trace");

  std::size_t n = static_cast<std::size_t>(
      std::ceil(options.fraction * static_cast<double>(num_chunks)));
  n = std::max({n, options.min_sampled_chunks, std::size_t{2}});
  if (n >= num_chunks) return simulate_all(config, trace, num_chunks);

  // Deterministic seeded subset: shuffle the chunk indexes, take the
  // first n, and visit them in trace order (warmup reuse locality and a
  // stable observation order).
  std::vector<std::size_t> order(num_chunks);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(options.seed);
  rng.shuffle(order);
  std::vector<std::size_t> picks(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(n));
  std::sort(picks.begin(), picks.end());

  SampledMetrics out;
  out.chunks_total = num_chunks;
  out.chunks_sampled = n;

  ChunkObservations obs;
  obs.reserve(n);
  for (const std::size_t k : picks) {
    if (config.sim.deadline != nullptr) config.sim.deadline->check();
    // One record stream per window: the warmup chunks, then the window.
    const std::size_t first_warm =
        k >= options.warmup_chunks ? k - options.warmup_chunks : 0;
    PredecodedTrace::Builder builder(config);
    out.events_simulated += append_chunks(builder, trace, first_warm, k);
    const std::size_t warmup_records = builder.size();
    const std::uint64_t window_events = append_chunks(builder, trace, k, k + 1);
    out.events_simulated += window_events;
    out.events_measured += window_events;
    const MemoryMetrics w = MemorySystem::simulate_window(
        config, std::move(builder).finish(), warmup_records);

    const auto requests =
        static_cast<double>(w.total_reads + w.total_writes);
    obs.reads.push_back(static_cast<double>(w.total_reads));
    obs.writes.push_back(static_cast<double>(w.total_writes));
    obs.requests.push_back(requests);
    obs.service_sum.push_back(w.avg_latency_cycles * requests);
    obs.total_sum.push_back(w.avg_total_latency_cycles * requests);
    obs.duration_s.push_back(w.execution_seconds);
    obs.dynamic_j.push_back(w.dynamic_energy_j);
    obs.background_j.push_back(w.background_energy_j);
    obs.megabytes.push_back(w.avg_bandwidth_per_bank_mbs *
                            static_cast<double>(w.banks_total) *
                            w.execution_seconds);
    obs.row_hits.push_back(static_cast<double>(w.row_hits));
    obs.row_misses.push_back(static_cast<double>(w.row_misses));
  }

  // `confidence` is a joint guarantee over all six reported metrics, so
  // each per-metric interval runs at the Bonferroni-corrected level
  // 1 - (1 - confidence)/6; two-sided Student-t quantile at n-1 degrees
  // of freedom.  Six uncorrected 95% intervals would jointly cover well
  // below 95%.
  const double alpha =
      (1.0 - options.confidence) / static_cast<double>(out.ci.size());
  const double t = student_t_quantile(1.0 - alpha / 2.0, n - 1);
  const auto channels = static_cast<double>(config.channels);
  const auto banks_total =
      static_cast<double>(config.channels) *
      static_cast<double>(config.ranks) * static_cast<double>(config.banks);

  // Extensive totals scale by N; intensive metrics are ratios of chunk
  // totals, matching how the exhaustive run computes them (e.g. average
  // latency = total latency-sum / total requests).
  const Estimate reads_t = total_estimate(obs.reads, num_chunks, t);
  const Estimate writes_t = total_estimate(obs.writes, num_chunks, t);
  const Estimate duration_t = total_estimate(obs.duration_s, num_chunks, t);
  const Estimate dynamic_t = total_estimate(obs.dynamic_j, num_chunks, t);
  const Estimate background_t =
      total_estimate(obs.background_j, num_chunks, t);
  const Estimate hits_t = total_estimate(obs.row_hits, num_chunks, t);
  const Estimate misses_t = total_estimate(obs.row_misses, num_chunks, t);

  std::vector<double> energy(n);
  for (std::size_t k = 0; k < n; ++k) {
    energy[k] = obs.dynamic_j[k] + obs.background_j[k];
  }
  const Estimate power = scale(
      ratio_estimate(energy, obs.duration_s, num_chunks, t), 1.0 / channels);
  const Estimate bandwidth =
      scale(ratio_estimate(obs.megabytes, obs.duration_s, num_chunks, t),
            1.0 / banks_total);
  const Estimate latency =
      ratio_estimate(obs.service_sum, obs.requests, num_chunks, t);
  const Estimate total_latency =
      ratio_estimate(obs.total_sum, obs.requests, num_chunks, t);
  const Estimate reads_per_channel = scale(reads_t, 1.0 / channels);
  const Estimate writes_per_channel = scale(writes_t, 1.0 / channels);

  MemoryMetrics& m = out.estimate;
  m.channels = config.channels;
  m.banks_total = static_cast<std::uint32_t>(banks_total);
  m.avg_power_per_channel_w = power.value;
  m.avg_bandwidth_per_bank_mbs = bandwidth.value;
  m.avg_latency_cycles = latency.value;
  m.avg_total_latency_cycles = total_latency.value;
  m.avg_reads_per_channel = reads_per_channel.value;
  m.avg_writes_per_channel = writes_per_channel.value;
  m.total_reads = to_count(reads_t.value);
  m.total_writes = to_count(writes_t.value);
  m.execution_seconds = duration_t.value;
  m.dynamic_energy_j = dynamic_t.value;
  m.background_energy_j = background_t.value;
  m.row_hits = to_count(hits_t.value);
  m.row_misses = to_count(misses_t.value);

  // Interval order must match MemoryMetrics::metric_names().
  const std::array<Estimate, 6> per_metric = {
      power,   bandwidth,        latency,
      total_latency, reads_per_channel, writes_per_channel};
  for (std::size_t i = 0; i < per_metric.size(); ++i) {
    out.ci[i] = interval_around(per_metric[i], options.min_relative_halfwidth);
  }
  return out;
}

}  // namespace gmd::memsim
