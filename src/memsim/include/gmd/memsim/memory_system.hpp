#pragma once

/// \file memory_system.hpp
/// A complete single-technology main-memory system: one controller per
/// channel and the energy model, replaying a predecoded request stream
/// (see PredecodedTrace) like NVMain's trace-reader main loop.  Every
/// simulation goes through PredecodedTrace::Builder, which splits,
/// decodes and counts endurance, and then through one replay loop.

#include <cstdint>
#include <span>
#include <vector>

#include "gmd/cpusim/memory_event.hpp"
#include "gmd/memsim/channel.hpp"
#include "gmd/memsim/config.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/memsim/predecoded_trace.hpp"

namespace gmd::memsim {

class MemorySystem {
 public:
  /// Simulates a whole trace: predecodes it for `config`'s geometry and
  /// replays the records.  Events must arrive in non-decreasing tick
  /// order per channel; `tick` is a CPU cycle, scaled to the memory
  /// clock at replay.  Accesses wider than one memory word are split.
  static MemoryMetrics simulate(const MemoryConfig& config,
                                std::span<const cpusim::MemoryEvent> trace);

  /// Replays a shared predecoded trace — the sweep's hot loop, which
  /// predecodes once per geometry.  The trace's decode key must match
  /// `config` (GMD_REQUIRE'd).  Replays into a fresh system, and reports
  /// the endurance the trace counted at build.
  static MemoryMetrics simulate(const MemoryConfig& config,
                                const PredecodedTrace& trace);

  /// Measures one window of `trace` (the sampled-simulation path): the
  /// first `warmup_records` records replay uncounted and prime bank,
  /// row-buffer, refresh and queue-backlog state; the rest are the
  /// window.  The window reports the steady-state schedule inside it,
  /// and the queues are deliberately *not* drained at either window
  /// edge: warmup requests completing in-window stand in for the
  /// window's own still-queued tail, so the boundaries cancel under a
  /// stationary backlog.  Requires epoch_cycles == 0 (epoch series are
  /// whole-run).  Endurance is not reported (the fields stay zero).
  static MemoryMetrics simulate_window(const MemoryConfig& config,
                                       const PredecodedTrace& trace,
                                       std::size_t warmup_records);

 private:
  explicit MemorySystem(const MemoryConfig& config);

  /// Feeds split and decoded records, stamping each record's tick to a
  /// controller cycle under this config's clocks.  Counts no endurance:
  /// the trace carries its own totals.
  void replay(std::span<const PredecodedTrace::Record> records);

  /// Ends a window's warmup: snapshots per-channel counter baselines at
  /// the serviced frontier, which finish() subtracts.
  void begin_measurement();

  /// Computes the final metrics.  Whole-trace runs drain every
  /// controller first; measurement windows stop at the serviced
  /// frontier instead (see simulate_window()).
  MemoryMetrics finish();

  MemoryConfig config_;
  TickStamp stamp_;  ///< CPU tick to controller cycle.
  std::vector<Channel> channels_;
  /// Per-channel counter baselines subtracted by finish().  All zero
  /// until begin_measurement() snapshots the warmup totals; subtracting
  /// zero is exact, so the unwindowed path's arithmetic is unchanged.
  std::vector<ChannelStats> baseline_;
  std::uint64_t measure_start_ = 0;  ///< Wall clock at window start.
  bool measuring_ = false;
};

}  // namespace gmd::memsim
