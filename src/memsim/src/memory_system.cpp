#include "gmd/memsim/memory_system.hpp"

#include <algorithm>

#include "gmd/common/error.hpp"

namespace gmd::memsim {

namespace {

void require_key(const MemoryConfig& config, const PredecodedTrace& trace) {
  GMD_REQUIRE(trace.config_key == PredecodedTrace::key(config),
              "predecoded trace was built for a different decode geometry ('"
                  << trace.config_key << "' vs '"
                  << PredecodedTrace::key(config) << "')");
}

}  // namespace

MemorySystem::MemorySystem(const MemoryConfig& config)
    : config_(config), stamp_(config) {
  config_.validate();
  channels_.reserve(config_.channels);
  for (std::uint32_t c = 0; c < config_.channels; ++c) {
    channels_.emplace_back(config_);
  }
  baseline_.resize(config_.channels);
  for (ChannelStats& base : baseline_) {
    base.bank_bytes.assign(
        static_cast<std::size_t>(config_.ranks) * config_.banks, 0);
  }
}

void MemorySystem::replay(std::span<const PredecodedTrace::Record> records) {
  // The stream carries CPU ticks; each request's cycle is stamped here
  // under this config's clocks.  The requests split from one event (and
  // runs of events) share a tick, so a cycle is computed once per run.
  // The local copy of the stamp stays in registers across the channel
  // calls.
  const TickStamp stamp = stamp_;
  std::uint64_t tick = 0;
  std::uint64_t cycle = 0;
  for (const PredecodedTrace::Record& r : records) {
    if (r.tick != tick) {
      tick = r.tick;
      cycle = stamp(tick);
    }
    channels_[r.channel].enqueue_trusted(r.bank, r.row, r.is_write != 0,
                                         cycle);
  }
}

void MemorySystem::begin_measurement() {
  GMD_REQUIRE(config_.epoch_cycles == 0,
              "measurement windows don't support epoch series "
              "(epoch_cycles must be 0)");
  measuring_ = true;
  // Deliberately no drain here (and none in finish() for a windowed
  // run): the window measures the steady-state schedule.  Warmup
  // requests still queued at this point get serviced — and counted —
  // inside the window, and in exchange the window's own still-queued
  // tail is left to the (never-simulated) successor window.  Under a
  // stationary backlog the two boundaries cancel, which is what makes
  // chunk-sampled estimates unbiased; draining either edge instead
  // injects an O(queue_depth / chunk_events) bias into the latency
  // metrics because a drained queue restarts from an artificial idle
  // point.
  std::uint64_t start = 0;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    channels_[c].sync_stats();
    baseline_[c] = channels_[c].stats();
    start = std::max(start, baseline_[c].last_completion);
  }
  measure_start_ = start;
}

MemoryMetrics MemorySystem::finish() {
  // Whole-trace runs drain — every request must be accounted for.  A
  // measurement window instead stops at the serviced frontier (see
  // simulate_window()): its queued tail belongs to the successor
  // window, mirroring the backlog it inherited from warmup.
  for (Channel& channel : channels_) {
    if (measuring_) {
      channel.sync_stats();
    } else {
      channel.drain();
    }
  }

  MemoryMetrics m;
  m.channels = config_.channels;
  m.banks_total = config_.channels * config_.ranks * config_.banks;

  std::uint64_t last_completion = 0;
  for (const Channel& channel : channels_) {
    last_completion =
        std::max(last_completion, channel.stats().last_completion);
  }
  const double clock_hz = static_cast<double>(config_.clock_mhz) * 1e6;
  // Everything below subtracts the measurement baselines, which stay
  // all-zero unless begin_measurement() ran — subtracting zero from a
  // u64 is exact, so the unwindowed arithmetic is unchanged.
  m.execution_seconds =
      last_completion
          ? static_cast<double>(last_completion - measure_start_) / clock_hz
          : 0.0;

  std::uint64_t sum_service = 0;
  std::uint64_t sum_total = 0;
  double dynamic_nj = 0.0;
  double bank_bw_sum_mbs = 0.0;
  const EnergyParams& e = config_.energy;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const ChannelStats& s = channels_[c].stats();
    const ChannelStats& base = baseline_[c];
    m.total_reads += s.reads - base.reads;
    m.total_writes += s.writes - base.writes;
    m.row_hits += s.row_hits - base.row_hits;
    m.row_misses += s.row_misses - base.row_misses;
    sum_service += s.sum_service_latency - base.sum_service_latency;
    sum_total += s.sum_total_latency - base.sum_total_latency;
    // Refresh count over the whole (windowed) run, not just to this
    // channel's own last completion (refresh runs as long as the system
    // does).
    const std::uint64_t refreshes =
        config_.timing.tREFI
            ? (last_completion / config_.timing.tREFI -
               measure_start_ / config_.timing.tREFI) *
                  (static_cast<std::uint64_t>(config_.ranks) * config_.banks)
            : 0;
    dynamic_nj += static_cast<double>(s.activations - base.activations) *
                      e.activate_nj +
                  static_cast<double>(s.precharges - base.precharges) *
                      e.precharge_nj +
                  static_cast<double>(s.reads - base.reads) * e.read_nj +
                  static_cast<double>(s.writes - base.writes) * e.write_nj +
                  static_cast<double>(refreshes) * e.refresh_nj;
    if (m.execution_seconds > 0.0) {
      for (std::size_t b = 0; b < s.bank_bytes.size(); ++b) {
        bank_bw_sum_mbs +=
            static_cast<double>(s.bank_bytes[b] - base.bank_bytes[b]) / 1e6 /
            m.execution_seconds;
      }
    }
  }

  const std::uint64_t requests = m.total_reads + m.total_writes;
  m.avg_latency_cycles =
      requests ? static_cast<double>(sum_service) /
                     static_cast<double>(requests)
               : 0.0;
  m.avg_total_latency_cycles =
      requests
          ? static_cast<double>(sum_total) / static_cast<double>(requests)
          : 0.0;
  m.avg_reads_per_channel = static_cast<double>(m.total_reads) /
                            static_cast<double>(config_.channels);
  m.avg_writes_per_channel = static_cast<double>(m.total_writes) /
                             static_cast<double>(config_.channels);
  m.avg_bandwidth_per_bank_mbs =
      bank_bw_sum_mbs / static_cast<double>(m.banks_total);

  // Power: dynamic energy over the run plus per-channel background.
  m.dynamic_energy_j = dynamic_nj * 1e-9;
  const double background_w_per_channel =
      (e.static_mw + e.background_mw_per_mhz *
                         static_cast<double>(config_.clock_mhz)) /
      1000.0;
  m.background_energy_j = background_w_per_channel *
                          static_cast<double>(config_.channels) *
                          m.execution_seconds;
  m.avg_power_per_channel_w =
      m.execution_seconds > 0.0
          ? m.total_energy_j() /
                (m.execution_seconds * static_cast<double>(config_.channels))
          : 0.0;

  // Merge epoch series across channels (NVMain PrintGraphs output).
  if (config_.epoch_cycles > 0) {
    std::size_t num_epochs = 0;
    for (const Channel& channel : channels_) {
      num_epochs = std::max(num_epochs, channel.stats().epochs.size());
    }
    const double epoch_seconds =
        static_cast<double>(config_.epoch_cycles) / clock_hz;
    m.epochs.resize(num_epochs);
    for (std::size_t e = 0; e < num_epochs; ++e) {
      MemoryMetrics::EpochSample& sample = m.epochs[e];
      sample.epoch = e;
      std::uint64_t sum_latency = 0;
      std::uint64_t bytes = 0;
      for (const Channel& channel : channels_) {
        const auto& epochs = channel.stats().epochs;
        if (e >= epochs.size()) continue;
        sample.reads += epochs[e].reads;
        sample.writes += epochs[e].writes;
        sum_latency += epochs[e].sum_total_latency;
        bytes += epochs[e].bytes;
      }
      const std::uint64_t requests = sample.reads + sample.writes;
      sample.avg_total_latency_cycles =
          requests ? static_cast<double>(sum_latency) /
                         static_cast<double>(requests)
                   : 0.0;
      sample.bandwidth_mbs =
          static_cast<double>(bytes) / 1e6 / epoch_seconds;
    }
  }
  return m;
}

MemoryMetrics MemorySystem::simulate(
    const MemoryConfig& config, std::span<const cpusim::MemoryEvent> trace) {
  return simulate(config, PredecodedTrace::build(config, trace));
}

MemoryMetrics MemorySystem::simulate(const MemoryConfig& config,
                                     const PredecodedTrace& trace) {
  require_key(config, trace);
  MemorySystem system(config);
  system.replay(trace.records);
  MemoryMetrics m = system.finish();
  m.max_line_writes = trace.max_line_writes;
  m.unique_lines_written = trace.unique_lines_written;
  return m;
}

MemoryMetrics MemorySystem::simulate_window(const MemoryConfig& config,
                                            const PredecodedTrace& trace,
                                            std::size_t warmup_records) {
  require_key(config, trace);
  GMD_REQUIRE(warmup_records <= trace.size(),
              "warmup exceeds the window's stream");
  const std::span<const PredecodedTrace::Record> records = trace.records;
  MemorySystem system(config);
  system.replay(records.first(warmup_records));
  system.begin_measurement();
  system.replay(records.subspan(warmup_records));
  return system.finish();
}

}  // namespace gmd::memsim
