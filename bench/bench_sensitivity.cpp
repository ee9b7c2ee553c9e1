/// \file bench_sensitivity.cpp
/// Main-effects sensitivity over the paper's 416-configuration sweep:
/// which design knob moves each metric, by how much, and toward which
/// level — the quantitative form of the paper's Figure-2 narrative
/// ("bandwidth grows with CPU frequency", "power depends on the
/// technology", ...).

#include <cstdio>

#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/sensitivity.hpp"
#include "support.hpp"

int main() {
  using namespace gmd;

  const auto trace = bench::paper_trace();
  const auto rows = bench::paper_sweep(trace);
  std::printf("# Main-effects sensitivity over the %zu-point paper space\n",
              rows.size());

  for (const std::string& metric : dse::target_metric_names()) {
    const auto analysis = dse::analyze_sensitivity(rows, metric);
    std::printf("\n%s", analysis.summary().c_str());
  }

  std::printf("\n# paper shape checks:\n");
  const auto power = dse::analyze_sensitivity(rows, "power_w");
  std::printf("#  power's best technology level is NVM:      %s\n",
              [&] {
                for (const auto& e : power.effects) {
                  if (e.parameter == "kind") return e.best_level == "nvm";
                }
                return false;
              }()
                  ? "PASS"
                  : "FAIL");
  const auto reads = dse::analyze_sensitivity(rows, "reads_per_channel");
  std::printf("#  reads/channel dominated by channel count:  %s\n",
              reads.dominant().parameter == "channels" ? "PASS" : "FAIL");
  const auto bw = dse::analyze_sensitivity(rows, "bandwidth_mbs");
  std::printf("#  bandwidth prefers the fastest CPU clock:   %s\n",
              [&] {
                for (const auto& e : bw.effects) {
                  if (e.parameter == "cpu_freq_mhz")
                    return e.best_level == "6500";
                }
                return false;
              }()
                  ? "PASS"
                  : "FAIL");
  return 0;
}
