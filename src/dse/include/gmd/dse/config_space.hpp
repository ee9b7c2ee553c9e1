#pragma once

/// \file config_space.hpp
/// Enumeration of the paper's 416-point design space and general
/// parameter-grid helpers for custom explorations.

#include <cstdint>
#include <string>
#include <vector>

#include "gmd/dse/design_point.hpp"

namespace gmd::dse {

/// The paper's full sweep:
///   DRAM:   4 CPU freqs x 4 controller freqs x {2,4} channels    =  32
///   NVM:    the same 32 cells x 6 tRCD values per controller freq = 192
///   Hybrid: likewise                                              = 192
/// Total 416 configurations, exactly the count reported in §IV-A3.
std::vector<DesignPoint> paper_design_space();

/// A reduced grid (one tRCD per controller frequency — the middle of
/// the paper's set) for fast examples and tests: 96 points.
std::vector<DesignPoint> reduced_design_space();

/// One-axis slice for interactive exploration, `axis` one of
/// ctrl | cpu | channels | trcd (trcd is NVM/hybrid only; throws
/// Error(kConfig) otherwise).  `gmd sweep` and `gmd worker` build their
/// point lists, this slice included, through one point-list parser
/// (examples/gmd/flags.hpp), so a supervisor and its workers always
/// agree on the sweep identity.
std::vector<DesignPoint> axis_design_points(const std::string& axis,
                                            MemoryKind kind);

/// Custom grid: every combination of the provided axis values.  tRCD
/// values apply to NVM and hybrid points only; DRAM uses its fixed
/// timing.  An empty axis throws.
struct GridAxes {
  std::vector<MemoryKind> kinds;
  std::vector<std::uint32_t> cpu_freqs_mhz;
  std::vector<std::uint32_t> ctrl_freqs_mhz;
  std::vector<std::uint32_t> channel_counts;
  /// Per-point tRCD values; for NVM/hybrid, paired with ctrl freq via
  /// memsim::nvm_trcd_set when empty.
  std::vector<std::uint32_t> trcds;
};
std::vector<DesignPoint> enumerate_grid(const GridAxes& axes);

}  // namespace gmd::dse
