#include "gmd/memsim/config_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd::memsim {
namespace {

TEST(ConfigIo, RoundTripsDramPreset) {
  const MemoryConfig original = make_dram_config(4, 1250, 5000);
  std::stringstream ss;
  write_config(ss, original);
  const MemoryConfig back = read_config(ss);
  EXPECT_EQ(back.name, original.name);
  EXPECT_EQ(back.device, original.device);
  EXPECT_EQ(back.channels, original.channels);
  EXPECT_EQ(back.clock_mhz, original.clock_mhz);
  EXPECT_EQ(back.cpu_freq_mhz, original.cpu_freq_mhz);
  EXPECT_EQ(back.timing.tRCD, original.timing.tRCD);
  EXPECT_EQ(back.timing.tRAS, original.timing.tRAS);
  EXPECT_EQ(back.timing.tRRD, original.timing.tRRD);
  EXPECT_EQ(back.timing.tFAW, original.timing.tFAW);
  EXPECT_EQ(back.timing.tREFI, original.timing.tREFI);
  EXPECT_EQ(back.scheduling, original.scheduling);
  EXPECT_EQ(back.page_policy, original.page_policy);
  EXPECT_EQ(back.address_mapping, original.address_mapping);
  EXPECT_DOUBLE_EQ(back.energy.static_mw, original.energy.static_mw);
  EXPECT_DOUBLE_EQ(back.energy.background_mw_per_mhz,
                   original.energy.background_mw_per_mhz);
}

TEST(ConfigIo, RoundTripsNvmPreset) {
  const MemoryConfig original = make_nvm_config(2, 666, 3000, 67);
  std::stringstream ss;
  write_config(ss, original);
  const MemoryConfig back = read_config(ss);
  EXPECT_EQ(back.device, DeviceType::kNvm);
  EXPECT_EQ(back.timing.tRCD, 67u);
  EXPECT_EQ(back.timing.tRAS, 0u);
  EXPECT_EQ(back.timing.tREFI, 0u);
  EXPECT_DOUBLE_EQ(back.energy.write_nj, original.energy.write_nj);
}

TEST(ConfigIo, ParsesHandWrittenFile) {
  std::istringstream in(
      "; my NVM experiment\n"
      "DeviceType PCM\n"
      "CHANNELS 4\n"
      "CLK 1600\n"
      "CPUFreq 6500\n"
      "tRCD 320 ; paper's largest value\n"
      "tRAS 0\n"
      "tRFC 0\n"
      "tREFI 0\n"
      "MEM_CTL fcfs\n"
      "PagePolicy ClosePage\n"
      "\n");
  const MemoryConfig config = read_config(in);
  EXPECT_EQ(config.device, DeviceType::kNvm);  // PCM alias
  EXPECT_EQ(config.channels, 4u);
  EXPECT_EQ(config.timing.tRCD, 320u);
  EXPECT_EQ(config.scheduling, SchedulingPolicy::kFcfs);
  EXPECT_EQ(config.page_policy, PagePolicy::kClosed);
  // Unspecified keys keep defaults.
  EXPECT_EQ(config.banks, MemoryConfig{}.banks);
}

TEST(ConfigIo, UnknownKeyThrows) {
  std::istringstream in("FOO 42\n");
  EXPECT_THROW(read_config(in), Error);
}

TEST(ConfigIo, MalformedLineThrows) {
  std::istringstream in("CHANNELS\n");
  EXPECT_THROW(read_config(in), Error);
  std::istringstream bad_value("CHANNELS many\n");
  EXPECT_THROW(read_config(bad_value), Error);
  std::istringstream bad_device("DeviceType SRAM\n");
  EXPECT_THROW(read_config(bad_device), Error);
}

TEST(ConfigIo, ResultIsValidated) {
  std::istringstream in("CHANNELS 0\n");
  EXPECT_THROW(read_config(in), Error);
  // Refresh fields must come as a pair.
  std::istringstream half_refresh("tRFC 100\ntREFI 0\n");
  EXPECT_THROW(read_config(half_refresh), Error);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/gmd_config_test_" +
                           std::to_string(::getpid()) + ".cfg";
  const MemoryConfig original = make_dram_config(2, 400, 2000);
  save_config(path, original);
  const MemoryConfig back = load_config(path);
  EXPECT_EQ(back.channels, original.channels);
  EXPECT_THROW(load_config("/nonexistent/x.cfg"), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmd::memsim
