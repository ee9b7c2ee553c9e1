/// \file trace_tools.cpp
/// The trace pipeline as a standalone tool.  Two modes:
///
/// Pipeline (no subcommand): run a graph workload, write its memory
/// trace in gem5 text format, convert it to NVMain text and to a GMDT
/// trace store with the parallel chunked converter (§III-D), and print
/// trace statistics — the part of the paper's workflow that moved
/// 91.5M gem5 lines into a 14 GB NVMain trace.
///
/// Subcommands for working with GMDT stores:
///   trace_tools pack   --input T.gem5.txt --input-format gem5 [--output T.gmdt]
///   trace_tools unpack --input T.gmdt [--output T.nvmain.txt]
///   trace_tools info   --input T.gmdt
///   trace_tools verify --input T.gmdt

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/dse/workload.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/trace/stats.hpp"
#include "gmd/tracestore/format.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace {

using namespace gmd;

/// Default output path: the input with its extension replaced.
std::string derive_output(const std::string& input, const char* extension) {
  return std::filesystem::path(input).replace_extension(extension).string();
}

int run_pack(int argc, char** argv) {
  CliParser cli("trace_tools pack", "pack a text trace into a GMDT store");
  cli.add_option("input", "", "input trace file (required)")
      .add_option("input-format", "gem5", "gem5 | nvmain")
      .add_option("output", "", "output store (default: input with .gmdt)")
      .add_option("chunk-events", "65536", "events per GMDT chunk")
      .add_option("chunk-kb", "4096", "parser chunk size in KiB")
      .add_option("threads", "0", "parser threads (0 = all cores)")
      .add_option("max-skipped", "-1",
                  "malformed-line budget (-1 = unlimited, 0 = strict)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string input = cli.get_string("input");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !input.empty(), "--input is required");
  std::string output = cli.get_string("output");
  if (output.empty()) output = derive_output(input, ".gmdt");
  const std::string format = cli.get_string("input-format");

  trace::ConvertOptions options;
  options.chunk_bytes = static_cast<std::size_t>(cli.get_int("chunk-kb")) * 1024;
  options.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
  options.gmdt_chunk_events =
      static_cast<std::size_t>(cli.get_int("chunk-events"));
  if (cli.get_int("max-skipped") >= 0) {
    options.max_skipped_lines =
        static_cast<std::uint64_t>(cli.get_int("max-skipped"));
  }

  trace::ConvertStats stats;
  if (format == "gem5") {
    stats = trace::convert_gem5_to_gmdt(input, output, options);
  } else if (format == "nvmain") {
    std::ifstream in(input);
    GMD_REQUIRE_AS(ErrorCode::kIo, in.good(), "cannot open '" << input << "'");
    const auto events = trace::read_nvmain_trace(in);
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
  CliParser cli("trace_tools unpack",
                "expand a GMDT store to NVMain text");
  cli.add_option("input", "", "input container (required)")
      .add_option("output", "",
                  "output text trace (default: input with .nvmain.txt)")
      .add_option("threads", "0", "decoder threads (0 = all cores)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string input = cli.get_string("input");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !input.empty(), "--input is required");
  std::string output = cli.get_string("output");
  if (output.empty()) output = derive_output(input, ".nvmain.txt");

  trace::ConvertOptions options;
  options.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
  const trace::ConvertStats stats =
      trace::convert_gmdt_to_nvmain(input, output, options);
  std::cout << "unpacked " << stats.events_out << " events from "
            << stats.chunks << " chunks -> " << output << "\n";
  return 0;
}

int run_info(int argc, char** argv) {
  CliParser cli("trace_tools info", "print GMDT store header and directory");
  cli.add_option("input", "", "GMDT store (required)")
      .add_option("max-chunks", "8", "chunk directory rows to print");
  if (!cli.parse(argc, argv)) return 0;

  const std::string input = cli.get_string("input");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !input.empty(), "--input is required");
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
  const auto max_chunks =
      static_cast<std::size_t>(cli.get_int("max-chunks"));
  const std::size_t shown = std::min(reader.num_chunks(), max_chunks);
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
  CliParser cli("trace_tools verify",
                "decode and checksum every chunk of a GMDT store");
  cli.add_option("input", "", "GMDT store (required)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string input = cli.get_string("input");
  GMD_REQUIRE_AS(ErrorCode::kConfig, !input.empty(), "--input is required");
  const tracestore::TraceStoreReader reader(input);
  reader.verify();
  std::cout << "ok: " << reader.num_events() << " events in "
            << reader.num_chunks() << " chunks, all checksums match\n";
  return 0;
}

int run_pipeline(int argc, char** argv) {
  CliParser cli("trace_tools", "generate, convert, and inspect memory traces");
  cli.add_option("workload", "bfs",
                 "bfs | dobfs | pagerank | cc | sssp | triangles")
      .add_option("vertices", "512", "graph size")
      .add_option("out-dir", "/tmp/gmd_traces", "output directory")
      .add_option("chunk-kb", "4096", "converter chunk size in KiB")
      .add_option("threads", "0", "converter threads (0 = all cores)");
  if (!cli.parse(argc, argv)) return 0;

  const auto events = dse::generate_workload_trace(
      {.graph_vertices = static_cast<std::uint32_t>(cli.get_int("vertices")),
       .workload = cli.get_string("workload")});

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
  options.chunk_bytes =
      static_cast<std::size_t>(cli.get_int("chunk-kb")) * 1024;
  options.num_threads = static_cast<std::size_t>(cli.get_int("threads"));
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

int main(int argc, char** argv) {
  try {
    if (argc > 1 && argv[1][0] != '-') {
      const std::string command = argv[1];
      if (command == "pack") return run_pack(argc - 1, argv + 1);
      if (command == "unpack") return run_unpack(argc - 1, argv + 1);
      if (command == "info") return run_info(argc - 1, argv + 1);
      if (command == "verify") return run_verify(argc - 1, argv + 1);
      throw gmd::Error(gmd::ErrorCode::kConfig,
                       "unknown subcommand '" + command +
                           "' (expected pack, unpack, info, or verify)");
    }
    return run_pipeline(argc, argv);
  } catch (const gmd::Error& e) {
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
