/// \file bench_sweep.cpp
/// Sweep-throughput gauge: times the memory simulator's event loop on
/// the default FR-FCFS/open-page DRAM config, the chunk-sampled speed
/// tier, and the full 416-point `run_sweep` over the paper's design
/// space, then prints the numbers as JSON (redirect to BENCH_sweep.json
/// to record a run).
///
/// Usage: bench_sweep [rmat_scale]
///
/// The sampled section replays a BFS trace over an R-MAT graph of
/// 2^rmat_scale vertices (default 14; the paper-scale figure uses 18,
/// which needs a few GB of RAM).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/sampled.hpp"

namespace {

using namespace gmd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<cpusim::MemoryEvent> bfs_events(const graph::CsrGraph& g) {
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

std::vector<cpusim::MemoryEvent> make_trace() {
  graph::UniformRandomParams params;
  params.num_vertices = 1024;
  params.edge_factor = 16;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  graph::remove_self_loops_and_duplicates(list);
  return bfs_events(graph::CsrGraph::from_edge_list(list));
}

std::vector<cpusim::MemoryEvent> make_rmat_trace(unsigned scale) {
  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  graph::EdgeList list = graph::generate_rmat(params);
  graph::symmetrize(list);
  graph::remove_self_loops_and_duplicates(list);
  return bfs_events(graph::CsrGraph::from_edge_list(list));
}

/// Repeats `fn` until ~min_seconds have elapsed; returns events/second.
template <typename Fn>
double throughput(std::size_t events, double min_seconds, Fn&& fn) {
  std::size_t runs = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++runs;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return static_cast<double>(events) * static_cast<double>(runs) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned rmat_scale =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 14;
  const auto trace = make_trace();
  const auto config = memsim::make_dram_config(2, 666, 3000);

  // Single-config event throughput (the bench_micro BM_MemorySimulation
  // shape): repeat until ~2 s have elapsed.
  const double events_per_second = throughput(trace.size(), 2.0, [&] {
    const auto m = memsim::MemorySystem::simulate(config, trace);
    (void)m;
  });

  // Chunk-sampled estimate at 10% of 2000-event windows on a BFS trace
  // over an R-MAT graph (single 2-channel DRAM config).
  const auto rmat_trace = make_rmat_trace(rmat_scale);
  memsim::SpanChunkedTrace chunked(rmat_trace, 2000);
  memsim::SampledSimOptions sample_options;
  sample_options.fraction = 0.1;
  memsim::SampledMetrics sampled;
  const double sampled_eps = throughput(rmat_trace.size(), 1.5, [&] {
    sampled = memsim::simulate_sampled(config, chunked, sample_options);
  });
  const double exhaustive_eps = throughput(rmat_trace.size(), 1.5, [&] {
    const auto m = memsim::MemorySystem::simulate(config, rmat_trace);
    (void)m;
  });

  // Full-space sweep wall-clock: exhaustive serial, then chunk-sampled.
  const auto points = dse::paper_design_space();
  const auto sweep_start = Clock::now();
  const auto rows = dse::run_sweep(points, trace);
  const double sweep_seconds = seconds_since(sweep_start);

  dse::SweepOptions sampled_sweep;
  sampled_sweep.sample_fraction = 0.1;
  sampled_sweep.sampling_chunk_events = 2000;
  const auto sampled_start = Clock::now();
  const auto sampled_rows = dse::run_sweep(points, trace, sampled_sweep);
  const double sampled_sweep_seconds = seconds_since(sampled_start);

  std::printf("{\n");
  std::printf("  \"trace_events\": %zu,\n", trace.size());
  std::printf("  \"memsim_events_per_second\": %.0f,\n", events_per_second);
  std::printf("  \"sampled\": {\n");
  std::printf("    \"rmat_scale\": %u,\n", rmat_scale);
  std::printf("    \"rmat_trace_events\": %zu,\n", rmat_trace.size());
  std::printf("    \"fraction\": %.2f,\n", sample_options.fraction);
  std::printf("    \"chunks_sampled\": %zu,\n", sampled.chunks_sampled);
  std::printf("    \"chunks_total\": %zu,\n", sampled.chunks_total);
  std::printf("    \"events_per_second\": %.0f,\n", sampled_eps);
  std::printf("    \"exhaustive_events_per_second\": %.0f,\n",
              exhaustive_eps);
  std::printf("    \"speedup_vs_exhaustive\": %.2f\n",
              sampled_eps / exhaustive_eps);
  std::printf("  },\n");
  std::printf("  \"sweep_points\": %zu,\n", rows.size());
  std::printf("  \"sweep_seconds\": %.3f,\n", sweep_seconds);
  std::printf("  \"sampled_sweep_points\": %zu,\n", sampled_rows.size());
  std::printf("  \"sampled_sweep_seconds\": %.3f\n", sampled_sweep_seconds);
  std::printf("}\n");
  return 0;
}
