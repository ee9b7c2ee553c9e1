/// \file bench_micro.cpp
/// Component microbenchmarks (google-benchmark): graph kernels, the
/// CPU-trace generator, the memory simulator's event throughput, the
/// parallel trace converter, and ML fit/predict costs.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>

#include "gmd/common/rng.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/algorithms.hpp"
#include "gmd/graph/bfs.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/memsim/sampled.hpp"
#include "gmd/ml/regressor.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "support.hpp"

namespace {

using namespace gmd;

graph::CsrGraph make_graph(graph::VertexId vertices) {
  graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 16;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  graph::remove_self_loops_and_duplicates(list);
  return graph::CsrGraph::from_edge_list(list);
}

std::vector<cpusim::MemoryEvent> make_trace(graph::VertexId vertices) {
  const auto g = make_graph(vertices);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

void BM_GraphGeneration(benchmark::State& state) {
  const auto vertices = static_cast<graph::VertexId>(state.range(0));
  for (auto _ : state) {
    graph::UniformRandomParams params;
    params.num_vertices = vertices;
    params.edge_factor = 16;
    benchmark::DoNotOptimize(graph::generate_uniform_random(params));
  }
  state.SetItemsProcessed(state.iterations() * vertices * 16);
}
BENCHMARK(BM_GraphGeneration)->Arg(1024)->Arg(8192);

void BM_BfsTopDown(benchmark::State& state) {
  const auto g = make_graph(static_cast<graph::VertexId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_top_down(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_BfsTopDown)->Arg(1024)->Arg(8192);

void BM_BfsDirectionOptimizing(benchmark::State& state) {
  const auto g = make_graph(static_cast<graph::VertexId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_direction_optimizing(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_BfsDirectionOptimizing)->Arg(1024)->Arg(8192);

void BM_PageRank(benchmark::State& state) {
  const auto g = make_graph(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::pagerank(g));
  }
}
BENCHMARK(BM_PageRank);

void BM_TraceGeneration(benchmark::State& state) {
  const auto g = make_graph(static_cast<graph::VertexId>(state.range(0)));
  for (auto _ : state) {
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    benchmark::DoNotOptimize(sink.events().size());
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(1024);

void BM_MemorySimulation(benchmark::State& state) {
  const auto trace = make_trace(1024);
  const auto config = memsim::make_dram_config(2, 666, 3000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memsim::MemorySystem::simulate(config, trace));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_MemorySimulation);

void BM_MemorySimulationNvm(benchmark::State& state) {
  const auto trace = make_trace(1024);
  const auto config = memsim::make_nvm_config(2, 666, 3000, 67);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memsim::MemorySystem::simulate(config, trace));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_MemorySimulationNvm);

/// The sweep's hot loop: replaying a shared predecoded trace (split and
/// decode already amortized across the config group; replay stamps each
/// event's controller cycle).
void BM_MemorySimulationPredecoded(benchmark::State& state) {
  const auto trace = make_trace(1024);
  const auto config = memsim::make_dram_config(2, 666, 3000);
  const auto predecoded = memsim::PredecodedTrace::build(config, trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memsim::MemorySystem::simulate(config, predecoded));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_MemorySimulationPredecoded);

/// The original scan-and-erase scheduler, as a same-binary baseline for
/// the fast path (MemSimOptions::reference_mode).
void BM_MemorySimulationReference(benchmark::State& state) {
  const auto trace = make_trace(1024);
  auto config = memsim::make_dram_config(2, 666, 3000);
  config.sim.reference_mode = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memsim::MemorySystem::simulate(config, trace));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_MemorySimulationReference);

/// Chunk-sampled estimate at 10% of 2000-event windows — the cheap
/// screening tier, which should scale with the sampled fraction.
void BM_MemorySimulationSampled(benchmark::State& state) {
  const auto trace = make_trace(1024);
  const auto config = memsim::make_dram_config(2, 666, 3000);
  memsim::SpanChunkedTrace chunked(trace, 2000);
  memsim::SampledSimOptions options;
  options.fraction = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memsim::simulate_sampled(config, chunked, options));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_MemorySimulationSampled);

void BM_TraceConverter(benchmark::State& state) {
  const auto trace = make_trace(1024);
  const bench::ScratchDir dir("gmd_bench_conv");
  const std::string in_path = (dir.path() / "in.txt").string();
  const std::string out_path = (dir.path() / "out.txt").string();
  {
    std::ofstream out(in_path);
    trace::Gem5TraceWriter writer(out);
    for (const auto& event : trace) writer.on_event(event);
  }
  const auto bytes = std::filesystem::file_size(in_path);
  trace::ConvertOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::convert_gem5_to_nvmain(in_path, out_path, options));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TraceConverter)->Arg(1)->Arg(4);

void BM_RegressorFit(benchmark::State& state, const char* name) {
  // DSE-shaped training data: 416 rows, 8 features.
  Rng rng(1);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 416; ++i) {
    std::vector<double> r(8);
    for (auto& v : r) v = rng.next_double();
    y.push_back(r[0] * r[1] + 0.3 * r[2]);
    rows.push_back(std::move(r));
  }
  const ml::Matrix x = ml::Matrix::from_rows(rows);
  for (auto _ : state) {
    const auto model = ml::make_regressor(name, 1);
    model->fit(x, y);
    benchmark::DoNotOptimize(model->predict_one(x.row(0)));
  }
}
BENCHMARK_CAPTURE(BM_RegressorFit, linear, "linear");
BENCHMARK_CAPTURE(BM_RegressorFit, svr, "svr");
BENCHMARK_CAPTURE(BM_RegressorFit, rf, "rf");
BENCHMARK_CAPTURE(BM_RegressorFit, gb, "gb");

void BM_SurrogatePredict(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 416; ++i) {
    std::vector<double> r(8);
    for (auto& v : r) v = rng.next_double();
    y.push_back(r[0] * r[1] + 0.3 * r[2]);
    rows.push_back(std::move(r));
  }
  const ml::Matrix x = ml::Matrix::from_rows(rows);
  const auto model = ml::make_regressor("svr", 1);
  model->fit(x, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict_one(x.row(i % 416)));
    ++i;
  }
}
BENCHMARK(BM_SurrogatePredict);

}  // namespace

BENCHMARK_MAIN();
