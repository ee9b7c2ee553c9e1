#pragma once

/// \file channel.hpp
/// One memory channel: transaction queue, scheduler (FCFS / FR-FCFS),
/// page policy, refresh, banks, data bus, and per-channel statistics.

#include <array>
#include <cstdint>
#include <vector>

#include "gmd/memsim/bank.hpp"
#include "gmd/memsim/config.hpp"

namespace gmd::memsim {

/// One memory transaction as offered to Channel::enqueue: input fields
/// only.  Times are in memory-controller cycles.  The channel keeps what
/// it derives while servicing (issue and completion cycles) in locals of
/// its timing algebra and folds it straight into ChannelStats.
struct Request {
  std::uint64_t arrival = 0;  ///< Enqueue cycle at the controller.
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t column = 0;  ///< No timing rule reads it.
  bool is_write = false;
};

/// Aggregated per-channel counters after a simulation run.
struct ChannelStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t activations = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t sum_service_latency = 0;
  std::uint64_t sum_total_latency = 0;
  std::uint64_t last_completion = 0;        ///< Cycle the channel went idle.
  std::vector<std::uint64_t> bank_bytes;    ///< Bytes moved per bank.

  /// Per-epoch accumulators (completion-cycle epochs); only populated
  /// when MemoryConfig::epoch_cycles > 0.
  struct Epoch {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t sum_total_latency = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Epoch> epochs;

  double avg_service_latency() const {
    const std::uint64_t n = reads + writes;
    return n ? static_cast<double>(sum_service_latency) /
                   static_cast<double>(n)
             : 0.0;
  }
  double avg_total_latency() const {
    const std::uint64_t n = reads + writes;
    return n ? static_cast<double>(sum_total_latency) / static_cast<double>(n)
             : 0.0;
  }
};

/// Channel controller.  Requests must be offered in arrival order
/// (enqueue() asserts monotone arrivals); drain() finishes the run.
///
/// Two scheduler implementations produce identical results:
///  - the fast path (default): the transaction queue lives in a 64-slot
///    window whose scheduling state is a handful of 64-bit masks (live
///    entries, writes, open-row hits, per-bank membership), one bit per
///    slot.  Slots fill left to right, so bit position is enqueue
///    (= arrival) order and each pick is a count-trailing-zeros over an
///    AND of masks instead of an O(queue_depth) scan.  The window is
///    structure-of-arrays: per slot only the arrival cycle, row and flat
///    bank are stored (the write bit lives in the write mask), so an
///    insert or a compaction moves 16 B per slot;
///  - the reference path (MemSimOptions::reference_mode): the original
///    vector scan + erase over Requests, kept so the equivalence suite
///    can prove the fast path bit-identical.  Queue depths beyond the
///    fast window also run here.
class Channel {
 public:
  /// \param config  Memory configuration (geometry/timing/policy);
  /// copied, so temporaries are safe to pass.
  explicit Channel(const MemoryConfig& config);

  /// Queues one transaction.  When the transaction queue is full the
  /// controller first services entries to make room, and the incoming
  /// request (plus everything after it) is pushed back to that drain
  /// point — the back-pressure NVMain's blocking trace reader applies,
  /// which keeps queuing delays bounded by the queue depth.
  void enqueue(const Request& request);

  /// enqueue() from fields, minus the rank/bank range check, for
  /// callers that guarantee the range up front (a predecoded trace's
  /// decoder establishes it once at build time).  `bank` is the flat
  /// index rank * banks + bank.  Arrival order is still checked: a
  /// predecoded stream's cycles are stamped at replay, so its order is
  /// only known then.
  void enqueue_trusted(std::uint32_t bank, std::uint32_t row,
                       bool is_write, std::uint64_t arrival);

  /// Services every queued transaction.
  void drain();

  /// Refreshes the derived fields of stats() (per-bank byte totals,
  /// refresh count) from current bank state without servicing anything;
  /// drain() ends with the same pass.  Lets a measurement window
  /// snapshot a consistent serviced-requests-only baseline mid-run.
  void sync_stats();

  const ChannelStats& stats() const { return stats_; }
  const std::vector<BankState>& banks() const { return banks_; }

  /// Per-rank activation-rate state (tRRD spacing, tFAW window).
  struct RankState {
    std::uint64_t last_activate = 0;
    bool any_activate = false;
    std::array<std::uint64_t, 4> window{};  ///< Last four ACT times.
    std::uint8_t window_filled = 0;
    std::uint8_t cursor = 0;
  };

 private:
  /// Applies the timing algebra and statistics for one request; shared
  /// by the reference and fast paths.  `b` is the request's flat bank
  /// and `row_hit` whether the bank's open row matches — both callers
  /// already have them.  Returns the completion cycle.
  std::uint64_t service_request(std::uint64_t arrival, std::uint32_t b,
                                std::uint32_t row, bool is_write,
                                bool row_hit);
  /// Pushes `cycle` past any refresh window it falls into.  Caches the
  /// containing window so the common case (consecutive requests in the
  /// same window) costs two compares instead of a division.
  std::uint64_t after_refresh(std::uint64_t cycle);
  /// Delays an ACT at `cycle` until the rank's tRRD/tFAW limits allow
  /// it, then records the activation.
  std::uint64_t constrain_and_record_activate(std::uint32_t rank,
                                              std::uint64_t cycle);

  std::uint32_t flat_bank(const Request& request) const {
    return request.rank * config_.banks + request.bank;
  }

  // Reference path ----------------------------------------------------
  /// Picks the next queue index per scheduling policy.
  std::size_t pick_next() const;
  /// Services queue_[index], removing it from the queue; returns the
  /// request's completion cycle.
  std::uint64_t service(std::size_t index);

  // Fast path ----------------------------------------------------------
  /// Window capacity: one bit of each scheduling mask per slot.
  static constexpr std::uint32_t kWindow = 64;
  /// Largest queue depth the fast path serves.  Depths above this leave
  /// too little slack between the queue and the window edge (compaction
  /// runs every kWindow - queue_depth inserts), so such configs use the
  /// reference path instead.
  static constexpr std::uint32_t kMaxFastDepth = 48;

  /// Places one admitted request into the window and the masks.
  void fast_insert(std::uint32_t b, std::uint32_t row, bool is_write,
                   std::uint64_t arrival);
  /// Moves the live slots back to the front of the window, preserving
  /// order; runs when an insert reaches the window edge.
  void compact_window();
  /// Picks and services the scheduler's next request; returns its
  /// completion cycle.
  std::uint64_t fast_service_next();
  std::uint64_t fast_service_slot(std::uint32_t s);

  MemoryConfig config_;
  std::uint64_t access_bytes_;          // config_.access_bytes(), hoisted
  std::vector<BankState> banks_;        // ranks * banks, rank-major
  std::vector<std::uint32_t> bank_rank_;  // flat bank -> rank
  std::vector<RankState> ranks_;        // activation-rate tracking
  std::uint64_t now_ = 0;               // controller command clock
  std::uint64_t bus_free_ = 0;          // data bus availability
  std::uint64_t last_cas_ = 0;          // channel-level tCCD spacing
  std::uint64_t last_arrival_ = 0;
  std::uint64_t stall_until_ = 0;  // back-pressure point for new arrivals
  std::uint64_t refresh_window_ = 0;  // cached tREFI window start
  ChannelStats stats_;

  // Reference-path storage.
  std::vector<Request> queue_;          // pending, arrival order

  // Fast-path storage.
  bool fast_ = true;
  bool track_hits_ = false;  // FR-FCFS + open page maintains hit bits
  std::uint64_t live_mask_ = 0;   // slots holding a pending request
  std::uint64_t write_mask_ = 0;  // pending writes
  std::uint64_t hit_mask_ = 0;    // pending open-row hits
  std::uint32_t pos_ = 0;         // next insert slot; monotone between
                                  // compactions, so position = age
  std::uint32_t arrived_ = 0;     // cached arrival<=horizon boundary
  std::uint32_t queued_reads_ = 0;
  std::uint32_t queued_writes_ = 0;
  // The window, one entry per slot.
  std::array<std::uint64_t, kWindow> slot_arrival_{};
  std::array<std::uint32_t, kWindow> slot_row_{};
  std::array<std::uint32_t, kWindow> slot_bank_{};  // flat bank
  std::vector<std::uint64_t> bank_mask_;  // per flat bank: live members
};

}  // namespace gmd::memsim
