#include "flags.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <utility>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/format.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::cli {

namespace {

dse::MemoryKind parse_kind(const std::string& kind) {
  if (kind == "dram") return dse::MemoryKind::kDram;
  if (kind == "nvm") return dse::MemoryKind::kNvm;
  if (kind == "hybrid") return dse::MemoryKind::kHybrid;
  throw Error(ErrorCode::kConfig,
              "unknown memory kind '" + kind + "' (dram|nvm|hybrid)");
}

dse::FailurePolicy parse_policy(const std::string& policy) {
  if (policy == "failfast") return dse::FailurePolicy::kFailFast;
  if (policy == "skip") return dse::FailurePolicy::kSkip;
  if (policy == "retry") return dse::FailurePolicy::kRetry;
  throw Error(ErrorCode::kConfig,
              "unknown failure policy '" + policy + "' (failfast|skip|retry)");
}

std::string describe_space(const std::string& name) {
  if (name == "axis") return "axis (one --axis slice)";
  if (name == "reduced") return "reduced (96)";
  if (name == "paper") return "paper (416)";
  return "million (lazy 10^6-point grid)";
}

const std::vector<std::string> kSweepSpaces = {"axis", "reduced", "paper",
                                               "million"};

}  // namespace

bool parse(CliParser& cli, int argc, char** argv) {
  if (!cli.parse(argc, argv)) return false;
  GMD_REQUIRE_AS(ErrorCode::kConfig, cli.positional().empty(),
                 "unexpected argument '" << cli.positional().front()
                                         << "' (options start with --)");
  return true;
}

std::chrono::milliseconds get_ms(const CliParser& cli,
                                 const std::string& name) {
  return std::chrono::milliseconds(cli.get_count<std::int64_t>(name));
}

void add_workload(CliParser& cli, const dse::WorkloadSpec& defaults,
                  const std::string& workload_help) {
  cli.add_option("workload", defaults.workload, workload_help)
      .add_option("vertices", std::to_string(defaults.graph_vertices),
                  "graph size")
      .add_option("edge-factor", std::to_string(defaults.edge_factor),
                  "edges per vertex")
      .add_option("seed", std::to_string(defaults.seed), "random seed");
}

dse::WorkloadSpec read_workload(const CliParser& cli) {
  return {.graph_vertices = cli.get_count<std::uint32_t>("vertices"),
          .edge_factor = cli.get_count<unsigned>("edge-factor"),
          .workload = cli.get_string("workload"),
          .seed = cli.get_count<std::uint64_t>("seed")};
}

void add_space(CliParser& cli, const std::vector<std::string>& names) {
  std::vector<std::string> described;
  for (const std::string& name : names) {
    described.push_back(describe_space(name));
  }
  cli.add_option("space", names.front(),
                 "point set: " + join(described, " | "));
}

dse::LazySpace read_space(const CliParser& cli,
                          const std::vector<std::string>& names) {
  const std::string name = cli.get_string("space");
  GMD_REQUIRE_AS(ErrorCode::kConfig,
                 std::find(names.begin(), names.end(), name) != names.end(),
                 "unknown space '" << name << "' (" << join(names, "|")
                                   << ")");
  if (name == "axis") {
    return dse::LazySpace::of(dse::axis_design_points(
        cli.get_string("axis"), parse_kind(cli.get_string("kind"))));
  }
  if (name == "reduced") return dse::LazySpace::reduced();
  if (name == "paper") return dse::LazySpace::paper();
  return dse::LazySpace(dse::LazySpace::million_axes());
}

void add_points(CliParser& cli) {
  add_space(cli, kSweepSpaces);
  cli.add_option("axis", "ctrl",
                 "--space axis: axis to sweep: ctrl | cpu | channels | trcd")
      .add_option("kind", "nvm",
                  "--space axis: memory technology: dram | nvm | hybrid")
      .add_option("limit", "0", "take only the first N points (0: all)");
}

dse::LazySpace read_points(const CliParser& cli) {
  dse::LazySpace space = read_space(cli, kSweepSpaces);
  const std::size_t limit = cli.get_count("limit");
  if (limit == 0 || limit >= space.size()) return space;
  // Only the prefix is decoded, so a limited run over the 10^6-point
  // space never materializes the rest.
  std::vector<dse::DesignPoint> prefix;
  space.decode_block(0, limit, prefix);
  return dse::LazySpace::of(std::move(prefix));
}

void add_sampling(CliParser& cli, bool in_memory) {
  cli.add_option("sample-fraction", "1.0",
                 "chunk-sampled simulation: fraction of trace chunks per "
                 "point (1.0 = exhaustive; hybrid points stay exhaustive)")
      .add_option("sample-seed", "1", "seed of the sampled chunk subset");
  if (in_memory) {
    cli.add_option("sample-chunk-events", "10000",
                   "events per sampling window for in-memory traces");
  }
}

void read_sampling(const CliParser& cli, bool in_memory,
                   dse::SweepOptions& sweep) {
  sweep.sample_fraction = cli.get_double("sample-fraction");
  sweep.sample_seed = cli.get_count<std::uint64_t>("sample-seed");
  if (in_memory) {
    sweep.sampling_chunk_events = cli.get_count("sample-chunk-events");
  }
}

void add_sweep(CliParser& cli, const std::string& default_policy) {
  cli.add_option("policy", default_policy,
                 "failure policy: failfast | skip | retry")
      .add_option("retries", "3", "max attempts per point under --policy retry")
      .add_option("deadline-ms", "0",
                  "per-point wall budget in milliseconds (0: unlimited)")
      .add_option("threads", "0", "sweep threads (0: hardware)");
  add_sampling(cli, /*in_memory=*/true);
}

dse::SweepOptions read_sweep(const CliParser& cli) {
  dse::SweepOptions sweep;
  sweep.failure_policy = parse_policy(cli.get_string("policy"));
  sweep.max_attempts = cli.get_count<std::uint32_t>("retries");
  sweep.point_wall_budget = get_ms(cli, "deadline-ms");
  sweep.num_threads = cli.get_count("threads");
  read_sampling(cli, /*in_memory=*/true, sweep);
  return sweep;
}

void add_trace_input(CliParser& cli) {
  cli.add_option("trace", "", "trace file (NVMain text or GMDT store)");
}

TraceInput read_trace_input(const CliParser& cli) {
  TraceInput input{cli.get_string("trace")};
  if (input.path.empty()) return input;
  std::ifstream in(input.path, std::ios::binary);
  GMD_REQUIRE_AS(ErrorCode::kIo, in.good(),
                 "cannot open trace '" << input.path << "'");
  std::array<char, tracestore::kMagic.size()> magic{};
  in.read(magic.data(), magic.size());
  input.gmdt = in.gcount() == static_cast<std::streamsize>(magic.size()) &&
               magic == tracestore::kMagic;
  return input;
}

std::vector<cpusim::MemoryEvent> read_trace_events(const TraceInput& input) {
  if (input.gmdt) return tracestore::TraceStoreReader(input.path).read_all();
  std::ifstream in(input.path);
  GMD_REQUIRE_AS(ErrorCode::kIo, in.good(),
                 "cannot open trace '" << input.path << "'");
  return trace::read_nvmain_trace(in);
}

void add_acquisition(CliParser& cli, const dse::ExplorerOptions& defaults) {
  cli.add_option("metric", defaults.metric,
                 "target metric driving acquisition")
      .add_option("initial", std::to_string(defaults.initial_samples),
                  "seed sample size")
      .add_option("batch", std::to_string(defaults.batch_size),
                  "points acquired per round")
      .add_option("budget", std::to_string(defaults.simulation_budget),
                  "total simulations, seed included");
}

void read_acquisition(const CliParser& cli, dse::ExplorerOptions& options) {
  options.metric = cli.get_string("metric");
  options.initial_samples = cli.get_count("initial");
  options.batch_size = cli.get_count("batch");
  options.simulation_budget = cli.get_count("budget");
}

}  // namespace gmd::cli
