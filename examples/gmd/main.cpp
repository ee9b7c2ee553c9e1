/// \file main.cpp
/// `gmd`: the paper's Fig. 1 workflow as verbs of one command.  Config
/// generation (§III-C), the trace converter (§III-D), the NVMain-style
/// simulator and sweep, and the training, recommendation and
/// exploration steps built on them all parse their flags through the
/// shared groups in flags.hpp.
///
/// Usage: gmd <verb> [--flag value ...]      gmd <verb> --help

#include <iostream>
#include <string>

#include "gmd/common/error.hpp"
#include "verbs.hpp"

namespace {

struct Verb {
  const char* name;
  int (*run)(int, char**);
  const char* summary;
};

constexpr Verb kVerbs[] = {
    {"configs", gmd::cli::configs,
     "write an NVMain-style config file per design point"},
    {"trace", gmd::cli::trace,
     "generate and convert a workload trace; pack|unpack|info|verify "
     "GMDT stores"},
    {"memsim", gmd::cli::memsim,
     "simulate one memory config over a trace file (the NVMain role)"},
    {"sweep", gmd::cli::sweep,
     "simulate a design space, in one process or over a run directory"},
    {"worker", gmd::cli::worker,
     "one lease-claiming worker of a distributed sweep"},
    {"pipeline", gmd::cli::pipeline,
     "crash-safe cpusim -> pack -> sweep -> train -> recommend run"},
    {"explore", gmd::cli::explore,
     "surrogate-guided closed-loop design-space exploration"},
    {"learning-curve", gmd::cli::learning_curve,
     "active learning vs random sampling, R2 per label budget"},
    {"pareto", gmd::cli::pareto,
     "Pareto front and the fastest memory under a power cap"},
    {"study", gmd::cli::study,
     "leave-one-workload-out surrogate generalization"},
};

std::string usage() {
  std::string text =
      "gmd - memory co-design for graph analytics\n\n"
      "Usage: gmd <verb> [--flag value ...]   (gmd <verb> --help)\n\n"
      "Verbs:\n";
  for (const Verb& verb : kVerbs) {
    text += "  " + std::string(verb.name) + "\n      " + verb.summary + "\n";
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmd;
  try {
    const std::string name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
      std::cout << usage();
      return 0;
    }
    for (const Verb& verb : kVerbs) {
      if (name == verb.name) return verb.run(argc - 1, argv + 1);
    }
    throw Error(ErrorCode::kConfig,
                (name.empty() ? "missing verb" : "unknown verb '" + name + "'") +
                    " (gmd --help lists the verbs)");
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
