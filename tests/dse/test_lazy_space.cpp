#include "gmd/dse/lazy_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/design_point.hpp"

namespace gmd::dse {
namespace {

// The historical enumeration orders are load-bearing (journals and
// sweep CSVs key off the point list), so the lazy decode is checked
// against hand-rolled nested loops, not against the production
// enumerators it now powers.

std::vector<DesignPoint> grid_by_nested_loops(const GridAxes& axes) {
  std::vector<DesignPoint> points;
  for (const MemoryKind kind : axes.kinds) {
    for (const std::uint32_t cpu : axes.cpu_freqs_mhz) {
      for (const std::uint32_t ctrl : axes.ctrl_freqs_mhz) {
        for (const std::uint32_t channels : axes.channel_counts) {
          const std::vector<std::uint32_t> trcds =
              kind == MemoryKind::kDram
                  ? std::vector<std::uint32_t>{9}
                  : (axes.trcds.empty() ? memsim::nvm_trcd_set(ctrl)
                                        : axes.trcds);
          for (const std::uint32_t trcd : trcds) {
            DesignPoint p;
            p.kind = kind;
            p.cpu_freq_mhz = cpu;
            p.ctrl_freq_mhz = ctrl;
            p.channels = channels;
            p.trcd = trcd;
            points.push_back(p);
          }
        }
      }
    }
  }
  return points;
}

std::vector<DesignPoint> paper_by_nested_loops() {
  std::vector<DesignPoint> points;
  for (const std::uint32_t cpu : memsim::paper_cpu_frequencies_mhz()) {
    for (const std::uint32_t ctrl : memsim::paper_controller_frequencies_mhz()) {
      for (const std::uint32_t channels : memsim::paper_channel_counts()) {
        DesignPoint dram;
        dram.kind = MemoryKind::kDram;
        dram.cpu_freq_mhz = cpu;
        dram.ctrl_freq_mhz = ctrl;
        dram.channels = channels;
        dram.trcd = 9;
        points.push_back(dram);
        for (const std::uint32_t trcd : memsim::nvm_trcd_set(ctrl)) {
          DesignPoint p = dram;
          p.trcd = trcd;
          p.kind = MemoryKind::kNvm;
          points.push_back(p);
          p.kind = MemoryKind::kHybrid;
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

GridAxes small_axes() {
  GridAxes axes;
  axes.kinds = {MemoryKind::kNvm, MemoryKind::kDram};
  axes.cpu_freqs_mhz = {2000, 3000, 5000};
  axes.ctrl_freqs_mhz = {400, 666};
  axes.channel_counts = {2, 4};
  axes.trcds = {11, 30, 55};
  return axes;
}

TEST(LazySpace, GridDecodeMatchesNestedLoops) {
  const GridAxes axes = small_axes();
  const LazySpace space(axes);
  const std::vector<DesignPoint> expected = grid_by_nested_loops(axes);
  ASSERT_EQ(space.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(space[i], expected[i]) << "index " << i;
  }
}

TEST(LazySpace, GridWithPerControllerTrcds) {
  // Empty axes.trcds: the NVM/hybrid tRCD set varies per controller
  // clock, which exercises the per-(kind, ctrl) prefix tables.
  GridAxes axes = small_axes();
  axes.trcds.clear();
  const LazySpace space(axes);
  const std::vector<DesignPoint> expected = grid_by_nested_loops(axes);
  ASSERT_EQ(space.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(space[i], expected[i]) << "index " << i;
  }
}

TEST(LazySpace, PaperLayoutMatchesHistoricalOrder) {
  const LazySpace space = LazySpace::paper();
  const std::vector<DesignPoint> expected = paper_by_nested_loops();
  ASSERT_EQ(space.size(), 416u);
  ASSERT_EQ(expected.size(), 416u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(space[i], expected[i]) << "index " << i;
  }
}

TEST(LazySpace, EnumeratorsAreMaterializeWrappers) {
  EXPECT_EQ(LazySpace::paper().materialize(), paper_design_space());
  EXPECT_EQ(LazySpace::reduced().materialize(), reduced_design_space());
  const GridAxes axes = small_axes();
  EXPECT_EQ(LazySpace(axes).materialize(), enumerate_grid(axes));
}

TEST(LazySpace, ReducedLayoutUsesMidTrcdPerController) {
  const LazySpace space = LazySpace::reduced();
  EXPECT_EQ(space.size(), 96u);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const DesignPoint p = space[i];
    ids.insert(p.id());
    if (p.kind == MemoryKind::kDram) {
      EXPECT_EQ(p.trcd, 9u);
    } else {
      const auto& trcds = memsim::nvm_trcd_set(p.ctrl_freq_mhz);
      EXPECT_EQ(p.trcd, trcds[trcds.size() / 2]) << p.id();
    }
  }
  EXPECT_EQ(ids.size(), space.size());
}

TEST(LazySpace, DecodeBlockMatchesPerIndexDecode) {
  const LazySpace space = LazySpace::paper();
  std::vector<DesignPoint> block;
  space.decode_block(100, 180, block);
  ASSERT_EQ(block.size(), 80u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(block[i], space[100 + i]);
  }
  space.decode_block(10, 10, block);
  EXPECT_TRUE(block.empty());
  EXPECT_THROW(space.decode_block(400, 500, block), Error);
}

TEST(LazySpace, DecodeFeaturesMatchesFeatureVector) {
  const LazySpace space = LazySpace::reduced();
  const std::size_t width = DesignPoint::feature_names().size();
  std::vector<double> buffer(space.size() * width);
  space.decode_features(0, space.size(), buffer);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const std::vector<double> expected = space[i].features();
    ASSERT_EQ(expected.size(), width);
    for (std::size_t f = 0; f < width; ++f) {
      EXPECT_EQ(buffer[i * width + f], expected[f]) << i << "/" << f;
    }
  }
}

/// An explicit list in a non-grid order, for the kList layout.
std::vector<DesignPoint> reversed_paper_points() {
  std::vector<DesignPoint> points = paper_design_space();
  std::reverse(points.begin(), points.end());
  return points;
}

TEST(LazySpace, ChecksumMatchesPointsChecksum) {
  for (const LazySpace& space :
       {LazySpace::paper(), LazySpace::reduced(), LazySpace(small_axes()),
        LazySpace::of(reversed_paper_points())}) {
    EXPECT_EQ(space.checksum(), points_checksum(space.materialize()));
  }
}

TEST(LazySpace, MillionSpaceExceedsAMillionPoints) {
  const LazySpace space(LazySpace::million_axes());
  EXPECT_EQ(space.size(), 1043200u);
  EXPECT_GE(space.size(), 1000000u);
  // Every point must be simulatable; validating all 10^6 configs is too
  // slow for a unit test, so sample a coprime stride that hits every
  // kind, channel count, and tRCD bucket.
  std::set<std::string> ids;
  for (std::size_t i = 0; i < space.size(); i += 997) {
    const DesignPoint p = space[i];
    EXPECT_NO_THROW(validate(p)) << p.id();
    ids.insert(p.id());
  }
  EXPECT_EQ(ids.size(), (space.size() + 996) / 997);  // all distinct
}

TEST(LazySpace, FeatureBoundsMatchExhaustiveScan) {
  const LazySpace space = LazySpace::reduced();
  std::vector<double> mins, maxs;
  space.feature_bounds(mins, maxs);
  const std::size_t width = DesignPoint::feature_names().size();
  ASSERT_EQ(mins.size(), width);
  ASSERT_EQ(maxs.size(), width);
  std::vector<double> expect_min(width, 1e300), expect_max(width, -1e300);
  for (const DesignPoint& p : space.materialize()) {
    const std::vector<double> f = p.features();
    for (std::size_t c = 0; c < width; ++c) {
      expect_min[c] = std::min(expect_min[c], f[c]);
      expect_max[c] = std::max(expect_max[c], f[c]);
    }
  }
  EXPECT_EQ(mins, expect_min);
  EXPECT_EQ(maxs, expect_max);
}

TEST(LazySpace, RejectsEmptyAxes) {
  GridAxes axes = small_axes();
  axes.cpu_freqs_mhz.clear();
  EXPECT_THROW(LazySpace{axes}, Error);
  EXPECT_THROW(LazySpace::paper()[416], Error);
}

}  // namespace
}  // namespace gmd::dse
