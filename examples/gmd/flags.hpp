#pragma once

/// \file flags.hpp
/// The flag groups that several `gmd` verbs share.  Each group is
/// declared here once, so a flag has one name, one parser and one set of
/// accepted values in every verb that takes it; a verb passes in only its
/// own defaults.  `add_*` declares a group on a verb's parser and the
/// matching `read_*` turns the parsed values into the library's types.

#include <chrono>
#include <string>
#include <vector>

#include "gmd/common/cli.hpp"
#include "gmd/cpusim/memory_event.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workload.hpp"

namespace gmd::cli {

/// Parses a verb's arguments.  Returns false when --help printed the
/// usage.  A verb takes no positional argument, so a leftover one (a
/// typo such as `-vertices 96`) is an Error(kConfig), not ignored.
bool parse(CliParser& cli, int argc, char** argv);

/// A non-negative millisecond count.
std::chrono::milliseconds get_ms(const CliParser& cli, const std::string& name);

/// --workload --vertices --edge-factor --seed.  `workload_help`
/// describes --workload (`study` takes a comma-separated kernel list).
void add_workload(CliParser& cli, const dse::WorkloadSpec& defaults,
                  const std::string& workload_help =
                      "graph kernel: bfs | dobfs | pagerank | cc | sssp | "
                      "triangles");
dse::WorkloadSpec read_workload(const CliParser& cli);

/// --space NAME, where NAME is one of the verb's `names` (the first is
/// the default): reduced (96 points), paper (416) or million (the lazy
/// 10^6-point grid).  Any other name is an Error(kConfig).
void add_space(CliParser& cli, const std::vector<std::string>& names);
dse::LazySpace read_space(const CliParser& cli,
                          const std::vector<std::string>& names);

/// --space axis|reduced|paper|million --axis --kind --limit: the point
/// list of a sweep (default: one --axis slice).  A supervisor and its
/// workers read it through this one function, so they always agree on
/// the sweep identity.
void add_points(CliParser& cli);
dse::LazySpace read_points(const CliParser& cli);

/// --sample-fraction --sample-seed: chunk-sampled simulation.  A GMDT
/// store samples its own chunks; a verb that may sample a trace held in
/// memory (`in_memory`) also takes --sample-chunk-events, the size of
/// that trace's sampling windows.
void add_sampling(CliParser& cli, bool in_memory);
void read_sampling(const CliParser& cli, bool in_memory,
                   dse::SweepOptions& sweep);

/// --policy --retries --deadline-ms --threads plus the in-memory
/// sampling group.
void add_sweep(CliParser& cli, const std::string& default_policy);
dse::SweepOptions read_sweep(const CliParser& cli);

/// --trace PATH: a trace file on disk, NVMain text or a GMDT store.  The
/// store is told apart by its magic bytes.
void add_trace_input(CliParser& cli);
struct TraceInput {
  std::string path;  ///< Empty: none given.
  bool gmdt = false;  ///< A GMDT store; otherwise NVMain text.
};
/// Throws Error(kIo) when the file cannot be opened.
TraceInput read_trace_input(const CliParser& cli);
/// Reads the whole trace into memory.
std::vector<cpusim::MemoryEvent> read_trace_events(const TraceInput& input);

/// --metric --initial --batch --budget: the acquisition loop of
/// `explore` and `learning-curve`.
void add_acquisition(CliParser& cli, const dse::ExplorerOptions& defaults);
void read_acquisition(const CliParser& cli, dse::ExplorerOptions& options);

}  // namespace gmd::cli
