#include "gmd/memsim/channel.hpp"

#include <algorithm>
#include <bit>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"

namespace gmd::memsim {

namespace {

/// Mask with bits [0, n) set; n may be 64.
inline std::uint64_t low_bits(std::uint32_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

inline std::uint32_t first_bit(std::uint64_t mask) {
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

}  // namespace

Channel::Channel(const MemoryConfig& config)
    : config_(config), access_bytes_(config.access_bytes()) {
  config.validate();
  banks_.resize(static_cast<std::size_t>(config.ranks) * config.banks);
  bank_rank_.resize(banks_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    bank_rank_[b] = static_cast<std::uint32_t>(b / config.banks);
  }
  ranks_.resize(config.ranks);
  stats_.bank_bytes.assign(banks_.size(), 0);
  fast_ = !config.sim.reference_mode && config.queue_depth <= kMaxFastDepth;
  track_hits_ = fast_ && config.scheduling == SchedulingPolicy::kFrFcfs &&
                config.page_policy == PagePolicy::kOpen;
  if (fast_) {
    bank_mask_.assign(banks_.size(), 0);
  } else {
    queue_.reserve(config.queue_depth);
  }
}

std::uint64_t Channel::constrain_and_record_activate(std::uint32_t rank,
                                                     std::uint64_t cycle) {
  RankState& state = ranks_[rank];
  const TimingParams& t = config_.timing;
  if (state.any_activate) {
    cycle = std::max(cycle, state.last_activate + t.tRRD);
  }
  if (t.tFAW != 0 && state.window_filled == state.window.size()) {
    // The oldest of the last four ACTs bounds this one.
    cycle = std::max(cycle, state.window[state.cursor] + t.tFAW);
  }
  state.last_activate = cycle;
  state.any_activate = true;
  state.window[state.cursor] = cycle;
  state.cursor =
      static_cast<std::uint8_t>((state.cursor + 1) % state.window.size());
  if (state.window_filled < state.window.size()) ++state.window_filled;
  return cycle;
}

void Channel::enqueue(const Request& request) {
  GMD_REQUIRE(request.rank < config_.ranks && request.bank < config_.banks,
              "request rank/bank out of range");
  enqueue_trusted(flat_bank(request), request.row, request.is_write,
                  request.arrival);
}

void Channel::enqueue_trusted(std::uint32_t bank, std::uint32_t row,
                              bool is_write, std::uint64_t arrival) {
  GMD_REQUIRE(arrival >= last_arrival_,
              "requests must be enqueued in arrival order");
  last_arrival_ = arrival;
  Deadline* const deadline = config_.sim.deadline;
  std::uint64_t admitted = std::max(arrival, stall_until_);
  if (fast_) {
    while (queued_reads_ + queued_writes_ >= config_.queue_depth) {
      // Queue full: the trace reader blocks until the controller retires
      // an entry; the incoming request cannot arrive before that.
      if (deadline) deadline->check();
      stall_until_ = std::max(stall_until_, fast_service_next());
      admitted = std::max(admitted, stall_until_);
    }
    fast_insert(bank, row, is_write, admitted);
    return;
  }
  while (queue_.size() >= config_.queue_depth) {
    if (deadline) deadline->check();
    stall_until_ = std::max(stall_until_, service(pick_next()));
    admitted = std::max(admitted, stall_until_);
  }
  Request& pending = queue_.emplace_back();
  pending.arrival = admitted;
  pending.rank = bank_rank_[bank];
  pending.bank = bank - pending.rank * config_.banks;
  pending.row = row;
  pending.is_write = is_write;
}

void Channel::drain() {
  Deadline* const deadline = config_.sim.deadline;
  if (fast_) {
    while (live_mask_ != 0) {
      if (deadline) deadline->check();
      fast_service_next();
    }
  } else {
    while (!queue_.empty()) {
      if (deadline) deadline->check();
      service(pick_next());
    }
  }
  sync_stats();
}

void Channel::sync_stats() {
  // Per-bank byte totals and the refresh count are pure functions of
  // final bank state / wall clock: one pass here (and at the end of
  // drain()) instead of bookkeeping on every retire.  Counts serviced
  // requests only, which is exactly what a measurement-window baseline
  // wants.
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    stats_.bank_bytes[i] = banks_[i].bytes_transferred;
  }
  if (config_.timing.tREFI != 0) {
    stats_.refreshes = stats_.last_completion / config_.timing.tREFI;
  }
}

std::uint64_t Channel::after_refresh(std::uint64_t cycle) {
  const TimingParams& t = config_.timing;
  if (t.tREFI == 0) return cycle;
  // Command times cluster, so `cycle` almost always falls in the cached
  // window; recompute (one division) only on a window change.
  if (cycle < refresh_window_ || cycle - refresh_window_ >= t.tREFI) {
    refresh_window_ = cycle / t.tREFI * t.tREFI;
  }
  if (cycle < refresh_window_ + t.tRFC) return refresh_window_ + t.tRFC;
  return cycle;
}

// Reference path ------------------------------------------------------

std::size_t Channel::pick_next() const {
  GMD_ASSERT(!queue_.empty(), "pick_next on empty queue");

  // Read priority (with a write-drain watermark against starvation):
  // restrict the candidate set to reads when allowed, then apply the
  // scheduling policy within that set.
  bool reads_only = false;
  if (config_.prioritize_reads) {
    std::size_t queued_writes = 0;
    bool any_read = false;
    for (const Request& r : queue_) {
      if (r.is_write) {
        ++queued_writes;
      } else {
        any_read = true;
      }
    }
    reads_only = any_read && queued_writes < config_.write_drain_watermark;
  }

  const auto eligible = [&](const Request& r) {
    return !reads_only || !r.is_write;
  };
  std::size_t oldest = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (eligible(queue_[i])) {
      oldest = i;
      break;
    }
  }
  GMD_ASSERT(oldest < queue_.size(), "no eligible request");
  if (config_.scheduling == SchedulingPolicy::kFcfs) return oldest;

  // FR-FCFS: among eligible requests that have arrived by the time the
  // oldest one could issue, prefer the first row hit; else the oldest.
  const std::uint64_t horizon = std::max(now_, queue_[oldest].arrival);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Request& r = queue_[i];
    if (r.arrival > horizon) break;  // queue is arrival-ordered
    if (!eligible(r)) continue;
    const BankState& bank = banks_[flat_bank(r)];
    if (bank.open_row && *bank.open_row == r.row) return i;
  }
  return oldest;
}

std::uint64_t Channel::service(std::size_t index) {
  GMD_ASSERT(index < queue_.size(), "service index out of range");
  const Request request = queue_[index];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  const std::uint32_t b = flat_bank(request);
  const BankState& bank = banks_[b];
  const bool row_hit = bank.open_row && *bank.open_row == request.row;
  return service_request(request.arrival, b, request.row, request.is_write,
                         row_hit);
}

// Fast path -----------------------------------------------------------

void Channel::fast_insert(std::uint32_t b, std::uint32_t row, bool is_write,
                          std::uint64_t arrival) {
  if (pos_ == kWindow) compact_window();
  const std::uint32_t s = pos_++;
  const std::uint64_t bit = std::uint64_t{1} << s;
  slot_arrival_[s] = arrival;
  slot_row_[s] = row;
  slot_bank_[s] = b;
  live_mask_ |= bit;
  bank_mask_[b] |= bit;
  if (is_write) {
    write_mask_ |= bit;
    ++queued_writes_;
  } else {
    ++queued_reads_;
  }
  if (track_hits_) {
    const BankState& bank = banks_[b];
    if (bank.open_row && *bank.open_row == row) hit_mask_ |= bit;
  }
}

void Channel::compact_window() {
  std::fill(bank_mask_.begin(), bank_mask_.end(), 0);
  std::uint64_t write_mask = 0;
  std::uint64_t hit_mask = 0;
  std::uint32_t n = 0;
  for (std::uint64_t m = live_mask_; m != 0; m &= m - 1) {
    const std::uint32_t s = first_bit(m);
    if (n != s) {
      slot_arrival_[n] = slot_arrival_[s];
      slot_row_[n] = slot_row_[s];
      slot_bank_[n] = slot_bank_[s];
    }
    const std::uint64_t old_bit = std::uint64_t{1} << s;
    const std::uint64_t new_bit = std::uint64_t{1} << n;
    if ((write_mask_ & old_bit) != 0) write_mask |= new_bit;
    if ((hit_mask_ & old_bit) != 0) hit_mask |= new_bit;
    bank_mask_[slot_bank_[n]] |= new_bit;
    ++n;
  }
  live_mask_ = low_bits(n);
  write_mask_ = write_mask;
  hit_mask_ = hit_mask;
  pos_ = n;
  arrived_ = 0;  // re-derived lazily against the next horizon
}

std::uint64_t Channel::fast_service_next() {
  GMD_ASSERT(live_mask_ != 0, "service on empty queue");
  // Read priority decision from running counters; the oldest (eligible)
  // request is the lowest set bit.
  const bool reads_only = config_.prioritize_reads && queued_reads_ > 0 &&
                          queued_writes_ < config_.write_drain_watermark;
  const std::uint64_t eligible =
      reads_only ? live_mask_ & ~write_mask_ : live_mask_;
  std::uint32_t victim = first_bit(eligible);
  // FR-FCFS: the oldest eligible row hit that has arrived by the horizon
  // beats the oldest request.  hit_mask_ is only maintained under
  // FR-FCFS + open page (closed page never has an open row at pick
  // time), so a zero mask covers every other policy combination.
  std::uint64_t hits = hit_mask_ & eligible;
  if (hits != 0) {
    const std::uint64_t horizon = std::max(now_, slot_arrival_[victim]);
    // Arrivals are monotone in slot position, so the slots with
    // arrival <= horizon form a prefix; the cached boundary usually
    // moves at most a step between picks.
    while (arrived_ < pos_ && slot_arrival_[arrived_] <= horizon) {
      ++arrived_;
    }
    while (arrived_ > 0 && slot_arrival_[arrived_ - 1] > horizon) {
      --arrived_;
    }
    hits &= low_bits(arrived_);
    if (hits != 0) victim = first_bit(hits);
  }
  return fast_service_slot(victim);
}

std::uint64_t Channel::fast_service_slot(std::uint32_t s) {
  const std::uint32_t b = slot_bank_[s];
  const std::uint32_t row = slot_row_[s];
  const std::uint64_t bit = std::uint64_t{1} << s;
  const bool is_write = (write_mask_ & bit) != 0;
  live_mask_ &= ~bit;
  bank_mask_[b] &= ~bit;
  hit_mask_ &= ~bit;
  if (is_write) {
    write_mask_ &= ~bit;
    --queued_writes_;
  } else {
    --queued_reads_;
  }
  const BankState& bank = banks_[b];
  const bool row_hit = bank.open_row && *bank.open_row == row;
  const std::uint64_t completion =
      service_request(slot_arrival_[s], b, row, is_write, row_hit);
  if (track_hits_ && !row_hit) {
    // The miss re-opened the bank on `row`: recompute which of the
    // bank's queued requests hit the new row.  Hits leave the open row
    // alone, so their retirement needs no mask work beyond the clears
    // above.
    std::uint64_t hits = 0;
    for (std::uint64_t m = bank_mask_[b]; m != 0; m &= m - 1) {
      const std::uint32_t i = first_bit(m);
      if (slot_row_[i] == row) hits |= std::uint64_t{1} << i;
    }
    hit_mask_ = (hit_mask_ & ~bank_mask_[b]) | hits;
  }
  return completion;
}

// Shared timing algebra ------------------------------------------------

std::uint64_t Channel::service_request(std::uint64_t arrival,
                                       std::uint32_t b, std::uint32_t row,
                                       bool is_write, bool row_hit) {
  const TimingParams& t = config_.timing;
  BankState& bank = banks_[b];

  // The controller takes the request up once it has both arrived and
  // the command engine has finished earlier work.
  const std::uint64_t take_up = std::max(now_, arrival);

  std::uint64_t cas_ready;       // earliest CAS issue from bank state
  std::uint64_t first_command;   // service_start
  if (row_hit) {
    // Row hit: CAS only.
    first_command = after_refresh(std::max(take_up, bank.ready_for_cas));
    cas_ready = first_command;
    ++bank.row_hits;
    ++stats_.row_hits;
  } else {
    std::uint64_t activate_start;
    bool first_command_is_activate = false;
    if (bank.open_row) {
      // Row conflict: PRE then ACT.
      const std::uint64_t pre_start =
          after_refresh(std::max(take_up, bank.ready_for_precharge));
      activate_start = after_refresh(pre_start + t.tRP);
      ++bank.precharges;
      ++stats_.precharges;
      ++bank.row_misses;
      ++stats_.row_misses;
      first_command = pre_start;
    } else {
      // Bank closed: ACT directly.
      activate_start =
          after_refresh(std::max(take_up, bank.ready_for_activate));
      ++bank.row_misses;
      ++stats_.row_misses;
      first_command_is_activate = true;
      first_command = activate_start;
    }
    // Rank-level activation pacing (tRRD, tFAW).
    activate_start =
        constrain_and_record_activate(bank_rank_[b], activate_start);
    if (first_command_is_activate) first_command = activate_start;
    bank.last_activate = activate_start;
    ++bank.activations;
    ++stats_.activations;
    cas_ready = activate_start + t.tRCD;
    bank.open_row = row;
  }

  // Column command: respects channel command spacing and the bank's
  // own column-to-column delay.
  const std::uint64_t cas_issue =
      std::max({cas_ready, bank.ready_for_cas, last_cas_ + t.tCCD});
  // Data burst: CAS latency then the burst, gated by data-bus
  // availability (reads; writes drive the bus on the same schedule).
  const std::uint64_t data_start = std::max(cas_issue + t.tCAS, bus_free_);
  const std::uint64_t data_end = data_start + t.tBURST;
  bus_free_ = data_end;
  last_cas_ = cas_issue;
  // Writes occupy the bank's write drivers for the recovery window
  // (tWR), blocking further column commands to that bank — this is how
  // slow NVM cell writes throttle write streams even on row hits.
  bank.ready_for_cas =
      is_write ? data_end + t.tWR : cas_issue + t.tCCD;

  // Precharge constraints: DRAM must satisfy tRAS from activate (data
  // restoration, absent in NVM where tRAS = 0); writes add recovery.
  const std::uint64_t ras_bound = bank.last_activate + t.tRAS;
  const std::uint64_t recovery =
      is_write ? data_end + t.tWR : data_end;
  bank.ready_for_precharge = std::max(ras_bound, recovery);

  if (config_.page_policy == PagePolicy::kClosed) {
    bank.open_row.reset();
    ++bank.precharges;
    ++stats_.precharges;
    bank.ready_for_activate = bank.ready_for_precharge + t.tRP;
  } else {
    // On a future conflict PRE starts at ready_for_precharge.
    bank.ready_for_activate = bank.ready_for_precharge + t.tRP;
  }

  // Record the transaction: service latency runs from the first command
  // (the paper's "average latency"), total latency from arrival (queue +
  // service, the paper's "total latency").
  const std::uint64_t total_latency = data_end - arrival;
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  stats_.sum_service_latency += data_end - first_command;
  stats_.sum_total_latency += total_latency;
  stats_.last_completion = std::max(stats_.last_completion, data_end);
  // Bytes only feed the final per-bank totals, assembled in drain().
  const std::uint64_t bytes = access_bytes_;
  bank.bytes_transferred += bytes;

  // Epoch time series (NVMain PrintGraphs), bucketed by completion.
  if (config_.epoch_cycles > 0) {
    const std::uint64_t epoch = data_end / config_.epoch_cycles;
    if (stats_.epochs.size() <= epoch) stats_.epochs.resize(epoch + 1);
    ChannelStats::Epoch& bucket = stats_.epochs[epoch];
    (is_write ? bucket.writes : bucket.reads) += 1;
    bucket.sum_total_latency += total_latency;
    bucket.bytes += bytes;
  }

  // The command engine is busy until it has issued this CAS.
  now_ = cas_issue;
  return data_end;
}

}  // namespace gmd::memsim
