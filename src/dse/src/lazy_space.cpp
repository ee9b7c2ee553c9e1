#include "gmd/dse/lazy_space.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"

namespace gmd::dse {

namespace {

/// Streaming block size for whole-space scans (checksum, bounds): big
/// enough to amortize the loop, small enough that peak memory stays a
/// few hundred KB regardless of space size.
constexpr std::size_t kScanBlock = 8192;

std::size_t find_prefix(std::span<const std::size_t> offsets,
                        std::size_t value) {
  // offsets has N+1 entries; returns i with offsets[i] <= value <
  // offsets[i+1].  upper_bound keeps this O(log N) even for very fine
  // frequency grids.
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), value);
  return static_cast<std::size_t>(it - offsets.begin()) - 1;
}

}  // namespace

LazySpace::LazySpace(const GridAxes& axes) {
  GMD_REQUIRE(!axes.kinds.empty(), "grid needs at least one memory kind");
  GMD_REQUIRE(!axes.cpu_freqs_mhz.empty(), "grid needs CPU frequencies");
  GMD_REQUIRE(!axes.ctrl_freqs_mhz.empty(),
              "grid needs controller frequencies");
  GMD_REQUIRE(!axes.channel_counts.empty(), "grid needs channel counts");
  layout_ = Layout::kGrid;
  kinds_ = axes.kinds;
  cpus_ = axes.cpu_freqs_mhz;
  ctrls_ = axes.ctrl_freqs_mhz;
  channels_ = axes.channel_counts;
  build_grid_tables(axes);
}

void LazySpace::build_grid_tables(const GridAxes& axes) {
  const std::size_t num_kinds = kinds_.size();
  const std::size_t num_ctrls = ctrls_.size();
  trcds_.resize(num_kinds * num_ctrls);
  ctrl_offset_.resize(num_kinds * (num_ctrls + 1));
  cpu_block_.resize(num_kinds);
  kind_offset_.assign(num_kinds + 1, 0);

  for (std::size_t k = 0; k < num_kinds; ++k) {
    std::size_t block = 0;
    for (std::size_t c = 0; c < num_ctrls; ++c) {
      ctrl_offset_[k * (num_ctrls + 1) + c] = block;
      std::vector<std::uint32_t>& trcds = trcds_[k * num_ctrls + c];
      if (kinds_[k] == MemoryKind::kDram) {
        trcds = {9};
      } else {
        trcds = axes.trcds.empty() ? memsim::nvm_trcd_set(ctrls_[c])
                                   : axes.trcds;
      }
      block += channels_.size() * trcds.size();
    }
    ctrl_offset_[k * (num_ctrls + 1) + num_ctrls] = block;
    cpu_block_[k] = block;
    kind_offset_[k + 1] = kind_offset_[k] + cpus_.size() * block;
  }
  size_ = kind_offset_[num_kinds];
}

LazySpace LazySpace::paper() {
  LazySpace space;
  space.layout_ = Layout::kPaper;
  space.kinds_ = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  space.cpus_ = memsim::paper_cpu_frequencies_mhz();
  space.ctrls_ = memsim::paper_controller_frequencies_mhz();
  space.channels_ = memsim::paper_channel_counts();
  space.build_cell_tables(Layout::kPaper);
  return space;
}

LazySpace LazySpace::reduced() {
  LazySpace space;
  space.layout_ = Layout::kReduced;
  space.kinds_ = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  space.cpus_ = memsim::paper_cpu_frequencies_mhz();
  space.ctrls_ = memsim::paper_controller_frequencies_mhz();
  space.channels_ = memsim::paper_channel_counts();
  space.build_cell_tables(Layout::kReduced);
  return space;
}

LazySpace LazySpace::of(std::vector<DesignPoint> points) {
  LazySpace space;
  space.layout_ = Layout::kList;
  space.size_ = points.size();
  space.points_ = std::move(points);
  return space;
}

void LazySpace::build_cell_tables(Layout layout) {
  const std::size_t num_ctrls = ctrls_.size();
  cell_.resize(num_ctrls);
  cell_ctrl_offset_.assign(num_ctrls + 1, 0);
  for (std::size_t c = 0; c < num_ctrls; ++c) {
    const std::vector<std::uint32_t>& trcds = memsim::nvm_trcd_set(ctrls_[c]);
    std::vector<CellEntry>& cell = cell_[c];
    cell.push_back({MemoryKind::kDram, 9});
    if (layout == Layout::kPaper) {
      for (const std::uint32_t trcd : trcds) {
        cell.push_back({MemoryKind::kNvm, trcd});
        cell.push_back({MemoryKind::kHybrid, trcd});
      }
    } else {
      const std::uint32_t mid = trcds[trcds.size() / 2];
      cell.push_back({MemoryKind::kNvm, mid});
      cell.push_back({MemoryKind::kHybrid, mid});
    }
    cell_ctrl_offset_[c + 1] =
        cell_ctrl_offset_[c] + channels_.size() * cell.size();
  }
  cell_cpu_block_ = cell_ctrl_offset_[num_ctrls];
  size_ = cpus_.size() * cell_cpu_block_;
}

GridAxes LazySpace::million_axes() {
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid};
  // 50 CPU clocks (1.0 .. 5.9 GHz), 32 controller clocks (200 .. 1750
  // MHz), 2..16 channels (even, so every hybrid point is simulatable),
  // and 81 NVM tRCD values (10 .. 330 controller cycles, spanning every
  // paper set): 6,400 DRAM + 2 x 518,400 NVM/hybrid = 1,043,200 points.
  for (std::uint32_t cpu = 1000; cpu < 6000; cpu += 100) {
    axes.cpu_freqs_mhz.push_back(cpu);
  }
  for (std::uint32_t ctrl = 200; ctrl < 1800; ctrl += 50) {
    axes.ctrl_freqs_mhz.push_back(ctrl);
  }
  axes.channel_counts = {2, 4, 8, 16};
  for (std::uint32_t trcd = 10; trcd < 334; trcd += 4) {
    axes.trcds.push_back(trcd);
  }
  return axes;
}

DesignPoint LazySpace::operator[](std::size_t index) const {
  GMD_REQUIRE(index < size_, "design-space index " << index
                                                   << " out of range (size "
                                                   << size_ << ")");
  if (layout_ == Layout::kList) return points_[index];
  DesignPoint p;
  if (layout_ == Layout::kGrid) {
    const std::size_t num_ctrls = ctrls_.size();
    const std::size_t k = find_prefix(kind_offset_, index);
    std::size_t r = index - kind_offset_[k];
    const std::size_t cpu_i = r / cpu_block_[k];
    r %= cpu_block_[k];
    const std::span<const std::size_t> offsets(
        ctrl_offset_.data() + k * (num_ctrls + 1), num_ctrls + 1);
    const std::size_t c = find_prefix(offsets, r);
    r -= offsets[c];
    const std::vector<std::uint32_t>& trcds = trcds_[k * num_ctrls + c];
    p.kind = kinds_[k];
    p.cpu_freq_mhz = cpus_[cpu_i];
    p.ctrl_freq_mhz = ctrls_[c];
    p.channels = channels_[r / trcds.size()];
    p.trcd = trcds[r % trcds.size()];
  } else {
    const std::size_t cpu_i = index / cell_cpu_block_;
    std::size_t r = index % cell_cpu_block_;
    const std::size_t c = find_prefix(cell_ctrl_offset_, r);
    r -= cell_ctrl_offset_[c];
    const std::vector<CellEntry>& cell = cell_[c];
    const CellEntry& entry = cell[r % cell.size()];
    p.kind = entry.kind;
    p.cpu_freq_mhz = cpus_[cpu_i];
    p.ctrl_freq_mhz = ctrls_[c];
    p.channels = channels_[r / cell.size()];
    p.trcd = entry.trcd;
  }
  return p;
}

void LazySpace::decode_block(std::size_t begin, std::size_t end,
                             std::vector<DesignPoint>& out) const {
  GMD_REQUIRE(begin <= end && end <= size_, "bad block range");
  out.resize(end - begin);
  for (std::size_t i = begin; i < end; ++i) out[i - begin] = (*this)[i];
}

void LazySpace::decode_features(std::size_t begin, std::size_t end,
                                std::span<double> out) const {
  GMD_REQUIRE(begin <= end && end <= size_, "bad block range");
  const std::size_t width = DesignPoint::feature_names().size();
  GMD_REQUIRE(out.size() == (end - begin) * width,
              "feature buffer size mismatch");
  for (std::size_t i = begin; i < end; ++i) {
    (*this)[i].write_features(out.subspan((i - begin) * width, width));
  }
}

std::vector<DesignPoint> LazySpace::materialize() const {
  std::vector<DesignPoint> points;
  points.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) points.push_back((*this)[i]);
  return points;
}

std::uint64_t LazySpace::checksum() const {
  // Field-for-field the same stream points_checksum() hashes, so a
  // journal keyed off a lazy space resumes against the materialized
  // vector and vice versa.
  Fnv1a h;
  h.mix(size_);
  std::vector<DesignPoint> block;
  for (std::size_t begin = 0; begin < size_; begin += kScanBlock) {
    decode_block(begin, std::min(size_, begin + kScanBlock), block);
    for (const DesignPoint& p : block) {
      h.mix(static_cast<std::uint64_t>(p.kind));
      h.mix(p.cpu_freq_mhz);
      h.mix(p.ctrl_freq_mhz);
      h.mix(p.channels);
      h.mix(p.trcd);
      h.mix_double(p.dram_fraction);
    }
  }
  return h.state;
}

void LazySpace::feature_bounds(std::vector<double>& mins,
                               std::vector<double>& maxs) const {
  const std::size_t width = DesignPoint::feature_names().size();
  mins.assign(width, std::numeric_limits<double>::infinity());
  maxs.assign(width, -std::numeric_limits<double>::infinity());
  std::vector<double> block(kScanBlock * width);
  for (std::size_t begin = 0; begin < size_; begin += kScanBlock) {
    const std::size_t end = std::min(size_, begin + kScanBlock);
    const std::size_t rows = end - begin;
    decode_features(begin, end, std::span(block.data(), rows * width));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t f = 0; f < width; ++f) {
        const double v = block[r * width + f];
        mins[f] = std::min(mins[f], v);
        maxs[f] = std::max(maxs[f], v);
      }
    }
  }
}

}  // namespace gmd::dse
