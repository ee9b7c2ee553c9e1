/// \file configs.cpp
/// `gmd configs`: the paper's configuration-generation scripts (§III-C):
/// "To avoid human errors, we automated the process of generating
/// configuration files for 1) pure DRAM, 2) pure NVM, and 3) a hybrid
/// ... with different numbers of channels as well as different values
/// for various memory configuration related parameters."
///
/// Emits one NVMain-style config file per design point (two files for
/// hybrids: the DRAM side and the NVM side) plus a manifest.tsv that
/// maps point ids to files — ready to drive `gmd memsim` in a shell loop.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "flags.hpp"
#include "gmd/common/error.hpp"
#include "gmd/memsim/config_io.hpp"
#include "verbs.hpp"

namespace gmd::cli {

namespace {
const std::vector<std::string> kConfigSpaces = {"paper", "reduced"};
}  // namespace

int configs(int argc, char** argv) {
  CliParser cli("gmd configs",
                "emit NVMain-style config files for a design space");
  add_space(cli, kConfigSpaces);
  cli.add_option("dir", "./configs", "output directory");
  if (!parse(cli, argc, argv)) return 0;

  const std::vector<dse::DesignPoint> points = read_space(cli, kConfigSpaces).materialize();
  const std::filesystem::path dir(cli.get_string("dir"));
  std::filesystem::create_directories(dir);
  std::ofstream manifest(dir / "manifest.tsv");
  GMD_REQUIRE(manifest.good(), "cannot write manifest");
  manifest << "id\tkind\tfiles\n";

  std::size_t files_written = 0;
  for (const dse::DesignPoint& point : points) {
    if (point.kind == dse::MemoryKind::kHybrid) {
      const auto hybrid = point.hybrid_config();
      const std::string dram_file = point.id() + ".dram.cfg";
      const std::string nvm_file = point.id() + ".nvm.cfg";
      memsim::save_config((dir / dram_file).string(), hybrid.dram);
      memsim::save_config((dir / nvm_file).string(), hybrid.nvm);
      manifest << point.id() << "\thybrid\t" << dram_file << "," << nvm_file
               << "\n";
      files_written += 2;
    } else {
      const std::string file = point.id() + ".cfg";
      memsim::save_config((dir / file).string(), point.single_config());
      manifest << point.id() << "\t" << to_string(point.kind) << "\t" << file
               << "\n";
      ++files_written;
    }
  }
  std::cout << "wrote " << files_written << " config files for "
            << points.size() << " design points to " << dir
            << " (manifest.tsv maps ids to files)\n";
  return 0;
}

}  // namespace gmd::cli
