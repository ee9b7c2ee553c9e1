/// \file gmd_serve.cpp
/// The resident DSE query service daemon.  Reads one JSON request per
/// line from stdin, writes one JSON response per line to stdout
/// (responses may be out of request order; match by "id"), and keeps
/// traces mmapped, surrogates loaded, and simulation results cached
/// across requests — the amortization a fresh process per query can
/// never get.  EOF on stdin is the graceful-drain signal: admission
/// stops, every accepted request completes and answers, then the
/// process exits 0.
///
/// Usage: gmd_serve [--traces alias=path,alias2=path2]
///          [--models name=path,name2=path2]
///          [--threads N] [--queue-depth N] [--cache-capacity N]
///          [--cache-shards N] [--default-deadline-ms N]
///          [--quarantine-probe-ms N] [--faults SPEC]
///
/// Traces/models can also arrive at runtime via the register_trace /
/// register_model verbs (see service.hpp for the protocol).
///
/// Chaos hooks: `--faults site=kind[:nth=N][:p=F][:seed=S][:oneshot],...`
/// (or the GMD_FAULTS environment variable) arms the process-wide
/// fault-injection registry before serving — see
/// gmd/common/faultinject.hpp for the site catalog and spec grammar.

#include <functional>
#include <iostream>
#include <mutex>
#include <string>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/service/service.hpp"

namespace {

using namespace gmd;

/// Parses "name=path,name2=path2" and hands each pair to `add`.
void register_pairs(const std::string& spec,
                    const std::function<void(const std::string&,
                                             const std::string&)>& add) {
  if (spec.empty()) return;
  for (const std::string_view pair : split(spec, ',')) {
    const auto eq = pair.find('=');
    GMD_REQUIRE_AS(ErrorCode::kConfig,
                   eq != std::string_view::npos && eq > 0 &&
                       eq + 1 < pair.size(),
                   "expected name=path, got '" << pair << "'");
    add(std::string(pair.substr(0, eq)), std::string(pair.substr(eq + 1)));
  }
}

int run(int argc, const char* const* argv) {
  CliParser cli("gmd_serve",
                "Resident DSE query service (JSON lines on stdin/stdout)");
  cli.add_option("traces", "", "comma-separated alias=path GMDT stores");
  cli.add_option("models", "", "comma-separated name=path .gmdm surrogates");
  cli.add_option("threads", "0", "worker threads (0: hardware)");
  cli.add_option("queue-depth", "256", "admission bound (pending requests)");
  cli.add_option("cache-capacity", "4096", "result cache entries");
  cli.add_option("cache-shards", "8", "result cache shards");
  cli.add_option("default-deadline-ms", "0",
                 "deadline for requests without one (0: unlimited)");
  cli.add_option("quarantine-probe-ms", "5000",
                 "min delay between re-probes of a quarantined resource "
                 "(0: probe on every lookup)");
  cli.add_option("faults", "",
                 "arm fault points: site=kind[:nth=N][:p=F][:seed=S]"
                 "[:oneshot],... (also read from $GMD_FAULTS)");
  if (!cli.parse(argc, argv)) return 0;

  service::ServiceOptions options;
  options.num_threads = cli.get_count("threads");
  options.max_queue_depth = cli.get_count("queue-depth");
  options.cache_capacity = cli.get_count("cache-capacity");
  options.cache_shards = cli.get_count("cache-shards");
  options.default_deadline =
      std::chrono::milliseconds(cli.get_count<std::int64_t>(
          "default-deadline-ms"));
  options.quarantine_probe_interval =
      std::chrono::milliseconds(cli.get_count<std::int64_t>(
          "quarantine-probe-ms"));

  // Chaos: arm injected faults before anything touches a fault point.
  if (const std::string faults = cli.get_string("faults"); !faults.empty()) {
    faultinject::arm_from_spec(faults);
  }
  faultinject::arm_from_env();

  service::Service service(options);
  register_pairs(cli.get_string("traces"),
                 [&service](const std::string& alias, const std::string& path) {
                   service.traces().register_store(alias, path);
                 });
  register_pairs(cli.get_string("models"),
                 [&service](const std::string& name, const std::string& path) {
                   service.models().register_model(name, path);
                 });

  // One mutex serializes response lines: worker threads answer
  // concurrently, and a torn line would corrupt the protocol.
  std::mutex stdout_mutex;
  const auto respond = [&stdout_mutex](std::string line) {
    std::lock_guard<std::mutex> lock(stdout_mutex);
    std::cout << line << "\n" << std::flush;
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    service.handle_line(line, respond);
  }
  // stdin EOF: drain accepted work (their responses still flush above),
  // then exit cleanly.
  service.drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "gmd_serve: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "gmd_serve: " << e.what() << "\n";
    return 1;
  }
}
