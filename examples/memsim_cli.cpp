/// \file memsim_cli.cpp
/// The NVMain command-line workflow, reimplemented: take a memory
/// configuration file and an NVMain-format trace file, simulate, and
/// print the performance metrics — so existing NVMain-style sweep
/// scripts can drive this simulator file-for-file.
///
/// Usage: memsim_cli --config mem.cfg --trace trace.nvt
///        memsim_cli --config mem.cfg --trace trace.gmdt --trace-format gmdt
///        memsim_cli --emit-config dram|nvm > mem.cfg

#include <fstream>
#include <iostream>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/memsim/config_io.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/sampled.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"

int main(int argc, char** argv) {
  using namespace gmd;

  CliParser cli("memsim_cli", "trace-driven memory simulation (NVMain role)");
  cli.add_option("config", "", "memory configuration file (NVMain-style)")
      .add_option("config-dram", "",
                  "hybrid mode: DRAM-side configuration file")
      .add_option("config-nvm", "",
                  "hybrid mode: NVM-side configuration file")
      .add_option("dram-fraction", "0.5",
                  "hybrid mode: fraction of pages routed to DRAM")
      .add_option("trace", "", "trace file (NVMain text or GMDT store)")
      .add_option("trace-format", "text",
                  "trace container: text (NVMain) | gmdt (trace store)")
      .add_option("emit-config", "",
                  "print a preset config (dram or nvm) to stdout and exit")
      .add_option("sample-fraction", "1.0",
                  "simulate only this fraction of trace chunks and report "
                  "estimates with confidence intervals; 1.0 = exhaustive "
                  "(single-technology configs only)")
      .add_option("sample-seed", "1", "seed of the sampled chunk subset")
      .add_option("sample-warmup-chunks", "1",
                  "uncounted warmup chunks before each sampled window")
      .add_option("sample-chunk-events", "10000",
                  "events per sampling window");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string preset = cli.get_string("emit-config");
    if (!preset.empty()) {
      if (preset == "dram") {
        memsim::write_config(std::cout, memsim::make_dram_config(2, 666, 3000));
      } else if (preset == "nvm") {
        memsim::write_config(std::cout,
                             memsim::make_nvm_config(2, 666, 3000, 67));
      } else {
        throw Error("--emit-config expects 'dram' or 'nvm'");
      }
      return 0;
    }

    const std::string config_path = cli.get_string("config");
    const std::string dram_path = cli.get_string("config-dram");
    const std::string nvm_path = cli.get_string("config-nvm");
    const std::string trace_path = cli.get_string("trace");
    const bool hybrid = !dram_path.empty() || !nvm_path.empty();
    GMD_REQUIRE((hybrid || !config_path.empty()) && !trace_path.empty(),
                "need --trace plus --config, or --config-dram/--config-nvm "
                "(or --emit-config)");

    const std::string trace_format = cli.get_string("trace-format");
    std::vector<cpusim::MemoryEvent> events;
    if (trace_format == "gmdt") {
      events = tracestore::TraceStoreReader(trace_path).read_all();
    } else if (trace_format == "text") {
      std::ifstream trace_in(trace_path);
      GMD_REQUIRE(trace_in.good(),
                  "cannot open trace '" << trace_path << "'");
      events = trace::read_nvmain_trace(trace_in);
    } else {
      throw Error(ErrorCode::kConfig,
                  "--trace-format expects 'text' or 'gmdt', got '" +
                      trace_format + "'");
    }

    const double sample_fraction = cli.get_double("sample-fraction");
    const bool sampling = sample_fraction < 1.0;
    memsim::MemoryMetrics metrics;
    memsim::SampledMetrics sampled;
    std::string description;
    if (hybrid) {
      GMD_REQUIRE(!dram_path.empty() && !nvm_path.empty(),
                  "hybrid mode needs both --config-dram and --config-nvm");
      GMD_REQUIRE(!sampling,
                  "--sample-fraction < 1 supports single-technology configs "
                  "only (hybrid migration state is whole-trace)");
      memsim::HybridConfig config;
      config.dram = memsim::load_config(dram_path);
      config.nvm = memsim::load_config(nvm_path);
      config.dram_fraction = cli.get_double("dram-fraction");
      metrics = memsim::HybridMemory::simulate(config, events);
      description = "hybrid (" + std::to_string(config.total_channels()) +
                    " channels)";
    } else {
      const memsim::MemoryConfig config = memsim::load_config(config_path);
      if (sampling) {
        memsim::SpanChunkedTrace chunked(
            events,
            static_cast<std::size_t>(cli.get_int("sample-chunk-events")));
        memsim::SampledSimOptions sopt;
        sopt.fraction = sample_fraction;
        sopt.seed = static_cast<std::uint64_t>(cli.get_int("sample-seed"));
        sopt.warmup_chunks = static_cast<std::uint32_t>(
            cli.get_int("sample-warmup-chunks"));
        sampled = memsim::simulate_sampled(config, chunked, sopt);
        metrics = sampled.estimate;
      } else {
        metrics = memsim::MemorySystem::simulate(config, events);
      }
      description = config.name + " (" + memsim::to_string(config.device) +
                    ", " + std::to_string(config.channels) + " channels, " +
                    std::to_string(config.clock_mhz) + " MHz)";
    }
    std::cout << "config: " << description << "\n"
              << "trace:  " << events.size() << " requests\n\n"
              << metrics.describe();
    if (sampling) {
      std::cout << "\nsampled: " << sampled.chunks_sampled << "/"
                << sampled.chunks_total << " chunks ("
                << sampled.events_measured << " measured events"
                << (sampled.exhaustive ? ", exhaustive fallback" : "")
                << "), 95% joint confidence intervals:\n";
      const auto& names = memsim::MemoryMetrics::metric_names();
      for (std::size_t i = 0; i < names.size(); ++i) {
        std::cout << "  " << names[i] << ": [" << sampled.ci[i].lo << ", "
                  << sampled.ci[i].hi << "]\n";
      }
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
