/// \file bench_tracestore.cpp
/// GMDT container gauge: generates a >=1M-event BFS trace (the paper's
/// workload at scale), writes it as NVMain text and as a GMDT store,
/// and measures on-disk size, pack throughput, and load throughput for
/// both containers — plus a 416-point sweep equivalence check proving
/// the store feed is bit-identical to the text feed.  Prints JSON
/// (redirect to BENCH_tracestore.json to record a run).

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gmd/common/thread_pool.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"
#include "support.hpp"

namespace {

using namespace gmd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<cpusim::MemoryEvent> make_trace(std::uint32_t vertices) {
  graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 16;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  graph::remove_self_loops_and_duplicates(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

std::size_t file_bytes(const std::string& path) {
  return static_cast<std::size_t>(std::filesystem::file_size(path));
}

}  // namespace

int main() {
  const bench::ScratchDir scratch("gmd_bench_tracestore");
  const std::string dir = scratch.path().string();
  const std::string gem5_path = dir + "/bench.gem5.txt";
  const std::string nvmain_path = dir + "/bench.nvmain.txt";
  const std::string store_path = dir + "/bench.gmdt";

  // ~16K vertices x edge factor 16 BFS yields >1M memory events.
  const auto events = make_trace(16384);

  {
    std::ofstream out(gem5_path);
    trace::Gem5TraceWriter writer(out);
    for (const auto& event : events) writer.on_event(event);
  }

  // Pack both containers from the same gem5 text, timed.
  const auto text_pack_start = Clock::now();
  trace::convert_gem5_to_nvmain(gem5_path, nvmain_path);
  const double text_pack_seconds = seconds_since(text_pack_start);

  const auto store_pack_start = Clock::now();
  trace::convert_gem5_to_gmdt(gem5_path, store_path);
  const double store_pack_seconds = seconds_since(store_pack_start);

  // Load throughput: NVMain text parse vs GMDT decode (sequential and
  // parallel).  Warm runs; take the best of 3 to reduce filesystem
  // cache noise.
  double text_load_seconds = 1e30;
  std::size_t text_events = 0;
  for (int run = 0; run < 3; ++run) {
    const auto start = Clock::now();
    std::ifstream in(nvmain_path);
    const auto loaded = trace::read_nvmain_trace(in);
    text_load_seconds = std::min(text_load_seconds, seconds_since(start));
    text_events = loaded.size();
  }

  double store_load_seconds = 1e30;
  std::size_t store_events = 0;
  for (int run = 0; run < 3; ++run) {
    const auto start = Clock::now();
    const tracestore::TraceStoreReader reader(store_path);
    const auto loaded = reader.read_all();
    store_load_seconds = std::min(store_load_seconds, seconds_since(start));
    store_events = loaded.size();
  }

  double store_parallel_load_seconds = 1e30;
  {
    ThreadPool pool;
    for (int run = 0; run < 3; ++run) {
      const auto start = Clock::now();
      const tracestore::TraceStoreReader reader(store_path);
      const auto loaded = reader.read_all(pool);
      store_parallel_load_seconds =
          std::min(store_parallel_load_seconds, seconds_since(start));
    }
  }

  // Sweep equivalence on the paper's 416-point space (1024-vertex
  // trace, as in BENCH_sweep): text-fed vs store-fed rows must carry
  // bit-identical metrics.
  const auto sweep_trace = make_trace(1024);
  const std::string sweep_gem5 = dir + "/sweep.gem5.txt";
  const std::string sweep_store = dir + "/sweep.gmdt";
  {
    std::ofstream out(sweep_gem5);
    trace::Gem5TraceWriter writer(out);
    for (const auto& event : sweep_trace) writer.on_event(event);
  }
  const std::string sweep_nvmain = dir + "/sweep.nvmain.txt";
  trace::convert_gem5_to_nvmain(sweep_gem5, sweep_nvmain);
  trace::convert_gem5_to_gmdt(sweep_gem5, sweep_store);
  std::vector<cpusim::MemoryEvent> text_sweep_events;
  {
    std::ifstream in(sweep_nvmain);
    text_sweep_events = trace::read_nvmain_trace(in);
  }
  const auto points = dse::paper_design_space();
  const auto text_rows = dse::run_sweep(points, text_sweep_events);

  const tracestore::TraceStoreReader sweep_reader(sweep_store);
  const auto store_sweep_start = Clock::now();
  const auto store_rows = dse::run_sweep(points, sweep_reader);
  const double store_sweep_seconds = seconds_since(store_sweep_start);

  std::size_t mismatched_rows = 0;
  for (std::size_t i = 0; i < text_rows.size(); ++i) {
    const auto a = text_rows[i].metrics.metric_values();
    const auto b = store_rows[i].metrics.metric_values();
    bool equal = a.size() == b.size();
    for (std::size_t k = 0; equal && k < a.size(); ++k) {
      equal = std::bit_cast<std::uint64_t>(a[k]) ==
              std::bit_cast<std::uint64_t>(b[k]);
    }
    if (!equal) ++mismatched_rows;
  }

  const std::size_t text_bytes = file_bytes(nvmain_path);
  const std::size_t store_bytes = file_bytes(store_path);
  const double size_ratio =
      static_cast<double>(text_bytes) / static_cast<double>(store_bytes);
  const double load_speedup = text_load_seconds / store_load_seconds;
  const double parallel_load_speedup =
      text_load_seconds / store_parallel_load_seconds;

  std::printf("{\n");
  std::printf("  \"trace_events\": %zu,\n", events.size());
  std::printf("  \"gem5_text_bytes\": %zu,\n", file_bytes(gem5_path));
  std::printf("  \"nvmain_text_bytes\": %zu,\n", text_bytes);
  std::printf("  \"gmdt_bytes\": %zu,\n", store_bytes);
  std::printf("  \"size_ratio_text_over_gmdt\": %.2f,\n", size_ratio);
  std::printf("  \"text_pack_seconds\": %.4f,\n", text_pack_seconds);
  std::printf("  \"gmdt_pack_seconds\": %.4f,\n", store_pack_seconds);
  std::printf("  \"text_load_seconds\": %.4f,\n", text_load_seconds);
  std::printf("  \"gmdt_load_seconds\": %.4f,\n", store_load_seconds);
  std::printf("  \"gmdt_parallel_load_seconds\": %.4f,\n",
              store_parallel_load_seconds);
  std::printf("  \"load_speedup_vs_text\": %.2f,\n", load_speedup);
  std::printf("  \"parallel_load_speedup_vs_text\": %.2f,\n",
              parallel_load_speedup);
  std::printf("  \"loaded_events_match\": %s,\n",
              text_events == store_events ? "true" : "false");
  std::printf("  \"sweep_points\": %zu,\n", store_rows.size());
  std::printf("  \"store_fed_sweep_seconds\": %.3f,\n", store_sweep_seconds);
  std::printf("  \"sweep_rows_bit_identical\": %s\n",
              mismatched_rows == 0 ? "true" : "false");
  std::printf("}\n");
  return mismatched_rows == 0 ? 0 : 1;
}
