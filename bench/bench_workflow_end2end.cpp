/// \file bench_workflow_end2end.cpp
/// Figure 1 as an executable: the full co-design pipeline with the
/// file-based trace round-trip (gem5-format trace -> parallel converter
/// -> NVMain-format trace), timed stage by stage.

#include <cstdio>
#include <filesystem>

#include "gmd/dse/workflow.hpp"
#include "support.hpp"

int main() {
  using namespace gmd;

  const bench::ScratchDir scratch("gmd_bench_workflow");
  const std::filesystem::path& tmp = scratch.path();

  dse::WorkflowConfig config;
  config.graph_vertices = 1024;
  config.edge_factor = 16;
  config.trace_dir = tmp.string();

  bench::Stopwatch watch;
  const dse::WorkflowResult result = dse::run_workflow(config);
  const double total = watch.seconds();

  std::printf("%s\n", result.report().c_str());
  std::printf("# end-to-end wall time (incl. file round-trip): %.2f s\n",
              total);
  const auto gem5_bytes =
      std::filesystem::file_size(tmp / "gem5_trace.txt");
  const auto nvmain_bytes =
      std::filesystem::file_size(tmp / "nvmain_trace.txt");
  std::printf("# trace files: gem5 %.1f MB -> nvmain %.1f MB\n",
              static_cast<double>(gem5_bytes) / 1e6,
              static_cast<double>(nvmain_bytes) / 1e6);
  return 0;
}
