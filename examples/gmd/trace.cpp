/// \file trace.cpp
/// `gmd trace` and `gmd memsim`: the trace half of the paper's workflow
/// and the NVMain command line.
///
/// `gmd trace` (no subverb) runs a graph workload, writes its memory
/// trace in gem5 text format, converts it to NVMain text and to a GMDT
/// trace store with the parallel chunked converter (§III-D), and prints
/// trace statistics — the part of the paper's workflow that moved
/// 91.5M gem5 lines into a 14 GB NVMain trace.  Subverbs work with GMDT
/// stores:
///   gmd trace pack   --input T.gem5.txt --input-format gem5 [--output T.gmdt]
///   gmd trace unpack --input T.gmdt [--output T.nvmain.txt]
///   gmd trace info   --input T.gmdt
///   gmd trace verify --input T.gmdt
///
/// `gmd memsim` takes a memory configuration file and a trace file,
/// simulates, and prints the performance metrics, so NVMain-style sweep
/// scripts can drive this simulator file for file:
///   gmd memsim --emit-config dram|nvm > mem.cfg
///   gmd memsim --config mem.cfg --trace T.nvmain.txt
///   gmd memsim --config mem.cfg --trace T.gmdt

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "gmd/common/error.hpp"
#include "gmd/memsim/config_io.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/sampled.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/trace/stats.hpp"
#include "gmd/tracestore/format.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"
#include "verbs.hpp"

namespace gmd::cli {

namespace {

std::string required_input(const CliParser& cli) {
  const std::string input = cli.get_string("input");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !input.empty(), "--input is required");
  return input;
}

/// The output path, defaulting to the input with its extension replaced.
std::string output_or(const CliParser& cli, const std::string& input,
                      const char* extension) {
  const std::string output = cli.get_string("output");
  if (!output.empty()) return output;
  return std::filesystem::path(input).replace_extension(extension).string();
}

int run_pack(int argc, char** argv) {
  CliParser cli("gmd trace pack", "pack a text trace into a GMDT store");
  cli.add_option("input", "", "input trace file (required)")
      .add_option("input-format", "gem5", "gem5 | nvmain")
      .add_option("output", "", "output store (default: input with .gmdt)")
      .add_option("chunk-events", "65536", "events per GMDT chunk")
      .add_option("chunk-kb", "4096", "parser chunk size in KiB")
      .add_option("threads", "0", "parser threads (0 = all cores)")
      .add_option("max-skipped", "-1",
                  "malformed-line budget (-1 = unlimited, 0 = strict)");
  if (!parse(cli, argc, argv)) return 0;

  const std::string input = required_input(cli);
  const std::string output = output_or(cli, input, ".gmdt");
  const std::string format = cli.get_string("input-format");

  trace::ConvertOptions options;
  options.chunk_bytes = cli.get_count("chunk-kb") * 1024;
  options.num_threads = cli.get_count("threads");
  options.gmdt_chunk_events = cli.get_count("chunk-events");
  if (cli.get_int("max-skipped") >= 0) {
    options.max_skipped_lines = cli.get_count<std::uint64_t>("max-skipped");
  }

  trace::ConvertStats stats;
  if (format == "gem5") {
    stats = trace::convert_gem5_to_gmdt(input, output, options);
  } else if (format == "nvmain") {
    const auto events = read_trace_events({input, /*gmdt=*/false});
    tracestore::TraceStoreWriterOptions store_options;
    store_options.events_per_chunk = options.gmdt_chunk_events;
    tracestore::write_trace_store(output, events, store_options);
    stats.lines_in = events.size();
    stats.events_out = events.size();
    stats.chunks = 1;
  } else {
    throw Error(ErrorCode::kConfig,
                "--input-format must be gem5 or nvmain, got '" + format + "'");
  }

  const tracestore::TraceStoreReader reader(output);
  std::cout << "packed " << stats.events_out << " events into "
            << reader.num_chunks() << " chunks (" << reader.file_bytes()
            << " bytes) -> " << output << "\n"
            << "skipped: " << trace::summarize_skipped(stats, options) << "\n";
  return 0;
}

int run_unpack(int argc, char** argv) {
  CliParser cli("gmd trace unpack", "expand a GMDT store to NVMain text");
  cli.add_option("input", "", "input container (required)")
      .add_option("output", "",
                  "output text trace (default: input with .nvmain.txt)")
      .add_option("threads", "0", "decoder threads (0 = all cores)");
  if (!parse(cli, argc, argv)) return 0;

  const std::string input = required_input(cli);
  const std::string output = output_or(cli, input, ".nvmain.txt");
  trace::ConvertOptions options;
  options.num_threads = cli.get_count("threads");
  const trace::ConvertStats stats =
      trace::convert_gmdt_to_nvmain(input, output, options);
  std::cout << "unpacked " << stats.events_out << " events from "
            << stats.chunks << " chunks -> " << output << "\n";
  return 0;
}

int run_info(int argc, char** argv) {
  CliParser cli("gmd trace info", "print GMDT store header and directory");
  cli.add_option("input", "", "GMDT store (required)")
      .add_option("max-chunks", "8", "chunk directory rows to print");
  if (!parse(cli, argc, argv)) return 0;

  const std::string input = required_input(cli);
  const tracestore::TraceStoreReader reader(input);
  const double bytes_per_event =
      reader.num_events() == 0
          ? 0.0
          : static_cast<double>(reader.file_bytes()) /
                static_cast<double>(reader.num_events());
  std::cout << "GMDT store: " << input << "\n"
            << "  format version:   " << reader.header().version << "\n"
            << "  events:           " << reader.num_events() << "\n"
            << "  chunks:           " << reader.num_chunks() << "\n"
            << "  events per chunk: " << reader.header().events_per_chunk
            << "\n"
            << "  file bytes:       " << reader.file_bytes() << "\n"
            << "  bytes per event:  " << bytes_per_event << "\n"
            << "  content checksum: 0x" << std::hex << reader.content_checksum()
            << std::dec << "\n";
  const std::size_t shown =
      std::min(reader.num_chunks(), cli.get_count("max-chunks"));
  for (std::size_t i = 0; i < shown; ++i) {
    const tracestore::ChunkEntry& entry = reader.chunk_info(i);
    std::cout << "  chunk " << i << ": " << entry.event_count << " events, "
              << entry.encoded_bytes << " bytes, ticks [" << entry.min_tick
              << ", " << entry.max_tick << "]\n";
  }
  if (shown < reader.num_chunks()) {
    std::cout << "  ... " << (reader.num_chunks() - shown)
              << " more chunks\n";
  }
  return 0;
}

int run_verify(int argc, char** argv) {
  CliParser cli("gmd trace verify",
                "decode and checksum every chunk of a GMDT store");
  cli.add_option("input", "", "GMDT store (required)");
  if (!parse(cli, argc, argv)) return 0;

  const tracestore::TraceStoreReader reader(required_input(cli));
  reader.verify();
  std::cout << "ok: " << reader.num_events() << " events in "
            << reader.num_chunks() << " chunks, all checksums match\n";
  return 0;
}

int run_generate(int argc, char** argv) {
  CliParser cli("gmd trace", "generate, convert, and inspect memory traces");
  add_workload(cli, {.graph_vertices = 512});
  cli.add_option("out-dir", "gmd-traces", "output directory")
      .add_option("chunk-kb", "4096", "converter chunk size in KiB")
      .add_option("threads", "0", "converter threads (0 = all cores)");
  if (!parse(cli, argc, argv)) return 0;

  const auto events = dse::generate_workload_trace(read_workload(cli));
  const std::filesystem::path dir(cli.get_string("out-dir"));
  std::filesystem::create_directories(dir);
  const std::string gem5_path = (dir / "workload.gem5.txt").string();
  const std::string nvmain_path = (dir / "workload.nvmain.txt").string();
  const std::string store_path = (dir / "workload.gmdt").string();

  {
    std::ofstream out(gem5_path);
    GMD_REQUIRE(out.good(), "cannot write " << gem5_path);
    trace::Gem5TraceWriter writer(out);
    for (const auto& event : events) writer.on_event(event);
    std::cout << "wrote " << writer.lines_written() << " gem5 lines to "
              << gem5_path << "\n";
  }

  trace::ConvertOptions options;
  options.chunk_bytes = cli.get_count("chunk-kb") * 1024;
  options.num_threads = cli.get_count("threads");
  const trace::ConvertStats stats =
      trace::convert_gem5_to_nvmain(gem5_path, nvmain_path, options);
  std::cout << "converted " << stats.lines_in << " lines into "
            << stats.events_out << " NVMain records across " << stats.chunks
            << " chunks -> " << nvmain_path << "\n"
            << "skipped: " << trace::summarize_skipped(stats, options) << "\n";

  const trace::ConvertStats store_stats =
      trace::convert_gem5_to_gmdt(gem5_path, store_path, options);
  const tracestore::TraceStoreReader reader(store_path);
  std::cout << "packed " << store_stats.events_out << " events into "
            << reader.num_chunks() << " GMDT chunks (" << reader.file_bytes()
            << " bytes) -> " << store_path << "\n\n";

  std::cout << "trace statistics:\n"
            << trace::describe(trace::compute_stats(events));
  return 0;
}

}  // namespace

int trace(int argc, char** argv) {
  if (argc > 1 && argv[1][0] != '-') {
    const std::string subverb = argv[1];
    if (subverb == "pack") return run_pack(argc - 1, argv + 1);
    if (subverb == "unpack") return run_unpack(argc - 1, argv + 1);
    if (subverb == "info") return run_info(argc - 1, argv + 1);
    if (subverb == "verify") return run_verify(argc - 1, argv + 1);
    throw Error(ErrorCode::kConfig,
                "unknown subverb '" + subverb +
                    "' (expected pack, unpack, info, or verify)");
  }
  return run_generate(argc, argv);
}

int memsim(int argc, char** argv) {
  CliParser cli("gmd memsim", "trace-driven memory simulation (NVMain role)");
  add_trace_input(cli);
  add_sampling(cli, /*in_memory=*/true);
  cli.add_option("config", "", "memory configuration file (NVMain-style)")
      .add_option("config-dram", "",
                  "hybrid mode: DRAM-side configuration file")
      .add_option("config-nvm", "", "hybrid mode: NVM-side configuration file")
      .add_option("dram-fraction", "0.5",
                  "hybrid mode: fraction of pages routed to DRAM")
      .add_option("emit-config", "",
                  "print a preset config (dram or nvm) to stdout and exit")
      .add_option("sample-warmup-chunks", "1",
                  "uncounted warmup chunks before each sampled window");
  if (!parse(cli, argc, argv)) return 0;

  const std::string preset = cli.get_string("emit-config");
  if (!preset.empty()) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, preset == "dram" || preset == "nvm",
                   "--emit-config expects 'dram' or 'nvm'");
    memsim::write_config(std::cout,
                         preset == "dram"
                             ? memsim::make_dram_config(2, 666, 3000)
                             : memsim::make_nvm_config(2, 666, 3000, 67));
    return 0;
  }

  const std::string config_path = cli.get_string("config");
  const std::string dram_path = cli.get_string("config-dram");
  const std::string nvm_path = cli.get_string("config-nvm");
  const TraceInput input = read_trace_input(cli);
  const bool hybrid = !dram_path.empty() || !nvm_path.empty();
  GMD_REQUIRE_AS(ErrorCode::kConfig,
                 (hybrid || !config_path.empty()) && !input.path.empty(),
                 "need --trace plus --config, or --config-dram/--config-nvm "
                 "(or --emit-config)");
  const std::vector<cpusim::MemoryEvent> events = read_trace_events(input);

  dse::SweepOptions sampling;
  read_sampling(cli, /*in_memory=*/true, sampling);
  const bool sampled_run = sampling.sample_fraction < 1.0;
  memsim::MemoryMetrics metrics;
  memsim::SampledMetrics sampled;
  std::string description;
  if (hybrid) {
    GMD_REQUIRE_AS(ErrorCode::kConfig, !dram_path.empty() && !nvm_path.empty(),
                   "hybrid mode needs both --config-dram and --config-nvm");
    GMD_REQUIRE_AS(ErrorCode::kConfig, !sampled_run,
                   "--sample-fraction < 1 supports single-technology configs "
                   "only (no two-sided window estimator for hybrids yet)");
    memsim::HybridConfig config;
    config.dram = memsim::load_config(dram_path);
    config.nvm = memsim::load_config(nvm_path);
    config.dram_fraction = cli.get_double("dram-fraction");
    metrics = memsim::HybridMemory::simulate(config, events);
    description =
        "hybrid (" + std::to_string(config.total_channels()) + " channels)";
  } else {
    const memsim::MemoryConfig config = memsim::load_config(config_path);
    if (sampled_run) {
      memsim::SpanChunkedTrace chunked(events, sampling.sampling_chunk_events);
      memsim::SampledSimOptions sopt;
      sopt.fraction = sampling.sample_fraction;
      sopt.seed = sampling.sample_seed;
      sopt.warmup_chunks = cli.get_count<std::uint32_t>("sample-warmup-chunks");
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
  if (sampled_run) {
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
}

}  // namespace gmd::cli
