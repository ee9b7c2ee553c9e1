#pragma once

/// \file memory_system.hpp
/// A complete single-technology main-memory system: address decoder,
/// one controller per channel, energy model, endurance tracking —
/// driven by a CPU-tick-stamped memory-event trace, like NVMain's
/// trace-reader main loop.

#include <cstdint>
#include <span>
#include <vector>

#include "gmd/common/flat_counter.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/address.hpp"
#include "gmd/memsim/channel.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {

class MemorySystem {
 public:
  explicit MemorySystem(const MemoryConfig& config);

  const MemoryConfig& config() const { return config_; }

  /// Feeds one trace event.  Events must arrive in non-decreasing tick
  /// order.  `tick` is a CPU cycle; the controller sees it scaled to
  /// the memory clock.  Accesses wider than one memory word are split.
  void enqueue_event(const cpusim::MemoryEvent& event);

  /// Ends the warmup phase of a measured window (the sampled-simulation
  /// path): snapshots per-channel counter baselines at the serviced
  /// frontier and clears endurance tracking.  finish() then reports
  /// metrics for the steady-state schedule inside the window — warmup
  /// primes bank, row-buffer, refresh, and queue-backlog state without
  /// being counted, and the queues are deliberately *not* drained at
  /// either window edge (warmup requests completing in-window stand in
  /// for the window's own still-queued tail, so the boundaries cancel
  /// under a stationary backlog).  Callable at most once; requires
  /// epoch_cycles == 0 (epoch series are whole-run).  When never
  /// called, finish() is bit-identical to the unwindowed arithmetic
  /// (baselines are all zero).
  void begin_measurement();

  /// Computes the final metrics.  Whole-trace runs drain every
  /// controller first; measurement windows stop at the serviced
  /// frontier instead (see begin_measurement()).
  MemoryMetrics finish();

  /// One-shot convenience: simulate a whole trace.
  static MemoryMetrics simulate(const MemoryConfig& config,
                                std::span<const cpusim::MemoryEvent> trace);

  /// One-shot fast path over a shared predecoded trace — the sweep's
  /// hot loop, which skips per-config word splitting and address
  /// decoding entirely.  The trace's decode key must match `config`
  /// (GMD_REQUIRE'd).  Replays into a fresh system, and reports the
  /// endurance the trace counted at build; results are identical to
  /// simulating the raw events.
  static MemoryMetrics simulate(const MemoryConfig& config,
                                const PredecodedTrace& trace);

  /// Converts a CPU tick to a memory-controller cycle.
  std::uint64_t tick_to_memory_cycle(std::uint64_t tick) const;

  const std::vector<Channel>& channels() const { return channels_; }

 private:
  void enqueue_word(std::uint64_t cycle, std::uint64_t address, bool is_write);
  /// Feeds an already split/decoded request stream, stamping each
  /// request's tick to a controller cycle under this config's clocks.
  /// Counts no endurance: simulate() takes the trace's own totals.
  void enqueue_predecoded(const PredecodedTrace& trace);

  MemoryConfig config_;
  AddressDecoder decoder_;
  TickStamp stamp_;  ///< CPU tick to controller cycle.
  std::vector<Channel> channels_;
  FlatCounter line_writes_;  ///< 64B-line write counts (endurance).
  /// Per-channel counter baselines subtracted by finish().  All zero
  /// until begin_measurement() snapshots the warmup totals; subtracting
  /// zero is exact, so the unwindowed path's arithmetic is unchanged.
  std::vector<ChannelStats> baseline_;
  std::uint64_t measure_start_ = 0;  ///< Wall clock at window start.
  bool measuring_ = false;
  bool finished_ = false;
};

}  // namespace gmd::memsim
