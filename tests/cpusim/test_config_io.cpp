#include "gmd/cpusim/config_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd::cpusim {
namespace {

TEST(CpuConfigIo, RoundTripsPlainModel) {
  CpuModel model;
  model.freq_mhz = 5000;
  model.compute_op_ticks = 2;
  model.memory_op_ticks = 25;
  std::stringstream ss;
  write_cpu_config(ss, model);
  const CpuModel back = read_cpu_config(ss);
  EXPECT_EQ(back.freq_mhz, 5000u);
  EXPECT_EQ(back.compute_op_ticks, 2u);
  EXPECT_EQ(back.memory_op_ticks, 25u);
  EXPECT_FALSE(back.cache.has_value());
  EXPECT_FALSE(back.cache_hierarchy.has_value());
}

TEST(CpuConfigIo, RoundTripsSingleLevelCache) {
  CpuModel model;
  model.cache = CacheConfig{64 * 1024, 64, 8};
  std::stringstream ss;
  write_cpu_config(ss, model);
  const CpuModel back = read_cpu_config(ss);
  ASSERT_TRUE(back.cache.has_value());
  EXPECT_EQ(back.cache->size_bytes, 64u * 1024);
  EXPECT_EQ(back.cache->associativity, 8u);
  EXPECT_FALSE(back.cache_hierarchy.has_value());
}

TEST(CpuConfigIo, RoundTripsHierarchy) {
  CpuModel model;
  model.cache_hierarchy = CacheHierarchyConfig{};
  std::stringstream ss;
  write_cpu_config(ss, model);
  const CpuModel back = read_cpu_config(ss);
  ASSERT_TRUE(back.cache_hierarchy.has_value());
  EXPECT_EQ(back.cache_hierarchy->l1.size_bytes,
            model.cache_hierarchy->l1.size_bytes);
  EXPECT_EQ(back.cache_hierarchy->l2.size_bytes,
            model.cache_hierarchy->l2.size_bytes);
}

TEST(CpuConfigIo, ParsesHandWrittenFile) {
  std::istringstream in(
      "# my gem5-ish system\n"
      "CPUFreqMHz 6500\n"
      "MemoryOpTicks 12 ; near-saturation\n"
      "L1Size 32768\n"
      "L1Line 64\n"
      "L1Assoc 4\n");
  const CpuModel model = read_cpu_config(in);
  EXPECT_EQ(model.freq_mhz, 6500u);
  EXPECT_EQ(model.memory_op_ticks, 12u);
  ASSERT_TRUE(model.cache.has_value());
  EXPECT_EQ(model.cache->size_bytes, 32768u);
}

TEST(CpuConfigIo, CacheEnableFalseStripsCaches) {
  std::istringstream in(
      "L1Size 32768\nL1Line 64\nL1Assoc 4\nCacheEnable false\n");
  const CpuModel model = read_cpu_config(in);
  EXPECT_FALSE(model.cache.has_value());
  EXPECT_FALSE(model.cache_hierarchy.has_value());
}

TEST(CpuConfigIo, RejectsMalformedInput) {
  std::istringstream unknown("Banana 3\n");
  EXPECT_THROW(read_cpu_config(unknown), Error);
  std::istringstream l2_only("L2Size 262144\nL2Line 64\nL2Assoc 8\n");
  EXPECT_THROW(read_cpu_config(l2_only), Error);
  std::istringstream bad_value("CPUFreqMHz fast\n");
  EXPECT_THROW(read_cpu_config(bad_value), Error);
  std::istringstream invalid_model("ComputeOpTicks 0\n");
  EXPECT_THROW(read_cpu_config(invalid_model), Error);
  std::istringstream bad_cache("L1Size 1000\nL1Line 48\nL1Assoc 3\n");
  EXPECT_THROW(read_cpu_config(bad_cache), Error);
}

TEST(CpuConfigIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/gmd_cpu_test_" +
                           std::to_string(::getpid()) + ".cfg";
  CpuModel model;
  model.freq_mhz = 3000;
  save_cpu_config(path, model);
  EXPECT_EQ(load_cpu_config(path).freq_mhz, 3000u);
  EXPECT_THROW(load_cpu_config("/nonexistent/cpu.cfg"), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmd::cpusim
