#pragma once

/// \file lazy_space.hpp
/// Indexed, never-materialized design spaces.  A LazySpace is a
/// cross-product view over GridAxes (or one of the paper's fixed point
/// sets, or an explicit point list) with O(1) index -> DesignPoint
/// decode, so a million-point space costs a few hundred bytes of prefix
/// tables instead of a million DesignPoints.  The adaptive explorer
/// streams such spaces block-at-a-time (decode_block) and the classic
/// enumerators (enumerate_grid, paper_design_space,
/// reduced_design_space) are thin materialize() wrappers over the same
/// decode, so eager and lazy callers can never disagree about point
/// order.
///
/// Point order is load-bearing — journals and sweep CSVs key off the
/// point list — and each layout reproduces its historical enumerator
/// exactly:
///   kGrid:    kind -> cpu -> ctrl -> channels -> trcd   (enumerate_grid)
///   kPaper:   cpu -> ctrl -> channels -> [dram, (nvm,hybrid) x trcd]
///   kReduced: cpu -> ctrl -> channels -> [dram, nvm, hybrid] @ mid-trcd
///   kList:    the given points, in the given order         (LazySpace::of)

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gmd/dse/config_space.hpp"
#include "gmd/dse/design_point.hpp"

namespace gmd::dse {

class LazySpace {
 public:
  /// Cross product of `axes` in enumerate_grid order (kind-major).
  /// Validation matches enumerate_grid: every axis must be non-empty,
  /// and when `axes.trcds` is empty the NVM/hybrid tRCD values come
  /// from memsim::nvm_trcd_set(ctrl) — which only the paper's four
  /// controller clocks have, so custom clocks need explicit trcds.
  explicit LazySpace(const GridAxes& axes);

  /// The paper's 416-point sweep, in paper_design_space() order.
  static LazySpace paper();

  /// The 96-point reduced grid, in reduced_design_space() order.
  static LazySpace reduced();

  /// An explicit point list in its given order, e.g. a learning-curve
  /// pool split off a grid.  Unlike the table layouts it holds every
  /// point, so it is for spaces small enough to materialize.
  static LazySpace of(std::vector<DesignPoint> points);

  /// Axes of a >= 10^6-point space: fine-grained CPU/controller
  /// frequency grids, 1..16 channels, and a dense NVM tRCD sweep —
  /// the ROADMAP item-4 space a dense sweep cannot cover.
  static GridAxes million_axes();

  std::size_t size() const { return size_; }

  /// O(1) decode of point `index` (< size()).
  DesignPoint operator[](std::size_t index) const;

  /// Decodes [begin, end) into `out` (resized to end - begin).
  void decode_block(std::size_t begin, std::size_t end,
                    std::vector<DesignPoint>& out) const;

  /// Decodes the ML feature rows of [begin, end) straight into a
  /// row-major buffer of (end - begin) x DesignPoint::feature_names()
  /// .size() doubles — the scoring hot path, skipping the per-point
  /// vector DesignPoint::features() allocates.
  void decode_features(std::size_t begin, std::size_t end,
                       std::span<double> out) const;

  /// The whole space as a vector — the classic enumerators.
  std::vector<DesignPoint> materialize() const;

  /// Streamed points_checksum(materialize()) without materializing:
  /// identical to checkpoint.cpp's points_checksum over the same
  /// points, so journals keyed off a lazy space and off its
  /// materialized vector agree.
  std::uint64_t checksum() const;

  /// Per-feature min/max over the whole space (streamed in blocks) —
  /// fits a MinMaxScaler::from_bounds once for the explorer instead of
  /// re-fitting scalers on every round's labeled subset.
  void feature_bounds(std::vector<double>& mins,
                      std::vector<double>& maxs) const;

 private:
  enum class Layout { kGrid, kPaper, kReduced, kList };

  LazySpace() = default;
  void build_grid_tables(const GridAxes& axes);
  void build_cell_tables(Layout layout);

  Layout layout_ = Layout::kGrid;
  std::size_t size_ = 0;

  // Shared axes.
  std::vector<MemoryKind> kinds_;
  std::vector<std::uint32_t> cpus_;
  std::vector<std::uint32_t> ctrls_;
  std::vector<std::uint32_t> channels_;

  // kGrid: per-kind, per-ctrl decode tables.  For kind k,
  //   kind_offset_[k]  points before kind k (kind_offset_ has K+1 entries)
  //   cpu_block_[k]    points per cpu value
  //   ctrl_offset_[k]  prefix over ctrl of channels * trcd-count
  //                    (K x (C+1), flattened)
  // trcd values per (kind, ctrl) live in trcds_[k * C + c].
  std::vector<std::size_t> kind_offset_;
  std::vector<std::size_t> cpu_block_;
  std::vector<std::size_t> ctrl_offset_;
  std::vector<std::vector<std::uint32_t>> trcds_;

  // kPaper / kReduced: per-ctrl (kind, trcd) cells.  cell_[c] lists the
  // points of one (cpu, ctrl, channels) coordinate in emission order;
  // cell_ctrl_offset_ is the prefix over ctrl of channels * cell size,
  // and one cpu value spans cell_cpu_block_ points.
  struct CellEntry {
    MemoryKind kind;
    std::uint32_t trcd;
  };
  std::vector<std::vector<CellEntry>> cell_;
  std::vector<std::size_t> cell_ctrl_offset_;
  std::size_t cell_cpu_block_ = 0;

  // kList: the points themselves.
  std::vector<DesignPoint> points_;
};

}  // namespace gmd::dse
