/// \file bench_service.cpp
/// Query-service gauge: runs gmd::service::Service in process over a
/// BFS trace store and a deployed surrogate and measures what a
/// resident daemon buys — cold vs cached simulate latency, p50/p99
/// under concurrent mixed load, result-cache hit rate, and 10k-config
/// batch predict throughput — then prints the numbers as JSON (redirect
/// to BENCH_service.json to record a run).
///
/// Usage: bench_service [vertices]   (default 512)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "gmd/common/faultinject.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/service/service.hpp"
#include "gmd/tracestore/writer.hpp"
#include "support.hpp"

namespace {

using namespace gmd;
using service::Json;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double percentile(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(ms.size() - 1) / 100.0 + 0.5);
  return ms[std::min(index, ms.size() - 1)];
}

std::vector<cpusim::MemoryEvent> bfs_trace(std::uint32_t vertices) {
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

Json simulate_request(const dse::DesignPoint& point) {
  Json request;
  request["verb"] = "simulate";
  request["trace"] = "bfs";
  request["points"] = Json(Json::Array{service::design_point_to_json(point)});
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const auto vertices =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 512;

  const bench::ScratchDir scratch("gmd_bench_service");
  const std::string dir = scratch.path().string();
  const std::string store_path = dir + "/workload.gmdt";
  const auto events = bfs_trace(vertices);
  tracestore::TraceStoreWriterOptions wopts;
  wopts.events_per_chunk = 4000;
  tracestore::write_trace_store(store_path, events, wopts);

  service::Service svc;
  svc.traces().register_store("bfs", store_path);
  {
    // Train the served surrogate on a local sweep of the reduced space.
    tracestore::TraceStoreReader store(store_path);
    const std::vector<dse::DesignPoint> space = dse::reduced_design_space();
    const std::vector<dse::SweepRow> rows = dse::run_sweep(space, store);
    svc.models().register_model(
        "bw", dse::SurrogateSuite::deploy(rows, "bandwidth_mbs", "gb"));
  }

  const std::vector<dse::DesignPoint> space = dse::paper_design_space();
  std::vector<dse::DesignPoint> sim_points;
  for (std::size_t i = 0; i < space.size(); i += 7) {
    sim_points.push_back(space[i]);
  }

  // --- cold vs cached simulate latency --------------------------------
  std::vector<double> cold_ms;
  for (const auto& point : sim_points) {
    const auto start = Clock::now();
    svc.handle(simulate_request(point).dump());
    cold_ms.push_back(ms_since(start));
  }
  std::vector<double> warm_ms;
  for (const auto& point : sim_points) {
    const auto start = Clock::now();
    svc.handle(simulate_request(point).dump());
    warm_ms.push_back(ms_since(start));
  }

  // --- concurrent mixed load ------------------------------------------
  const std::size_t num_threads = 8;
  const std::size_t per_thread = 32;
  std::mutex latency_mutex;
  std::vector<double> mixed_ms;
  std::vector<std::thread> clients;
  const auto mixed_start = Clock::now();
  for (std::size_t t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<double> local;
      for (std::size_t k = 0; k < per_thread; ++k) {
        Json request;
        switch ((t + k) % 4) {
          case 0:
            request =
                simulate_request(sim_points[(t * per_thread + k) %
                                            sim_points.size()]);
            break;
          case 1: {
            request["verb"] = "predict";
            request["model"] = "bw";
            Json::Array pts;
            for (const auto& p : sim_points) {
              pts.push_back(service::design_point_to_json(p));
            }
            request["points"] = Json(std::move(pts));
            break;
          }
          case 2:
            request["verb"] = "recommend";
            request["metric"] = "bandwidth_mbs";
            request["model"] = "bw";
            break;
          default: request["verb"] = "stats"; break;
        }
        const auto start = Clock::now();
        svc.handle(request.dump());
        local.push_back(ms_since(start));
      }
      const std::lock_guard<std::mutex> lock(latency_mutex);
      mixed_ms.insert(mixed_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& thread : clients) thread.join();
  const double mixed_wall_ms = ms_since(mixed_start);

  // --- 10k-config batch predict ---------------------------------------
  Json predict;
  predict["verb"] = "predict";
  predict["model"] = "bw";
  Json::Array pts;
  while (pts.size() < 10000) {
    pts.push_back(service::design_point_to_json(space[pts.size() % space.size()]));
  }
  const std::size_t predict_configs = pts.size();
  predict["points"] = Json(std::move(pts));
  const auto predict_start = Clock::now();
  svc.handle(predict.dump());
  const double predict_ms = ms_since(predict_start);

  const Json stats = Json::parse(svc.handle(R"({"verb":"stats"})"));
  const double hit_rate = stats.at("cache").at("hit_rate").as_number();
  svc.drain();

  // --- disarmed fault-point overhead ----------------------------------
  // Every service verb and I/O path now crosses GMD_FAULT_POINT sites;
  // this gauge proves the disarmed fast path (one relaxed atomic load)
  // is free at serving granularity.  Expect well under a nanosecond.
  double fault_point_ns = 0.0;
  {
    constexpr std::uint64_t kIters = 20'000'000;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      GMD_FAULT_POINT("bench.disarmed_site");
    }
    const double total_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    fault_point_ns = total_ns / static_cast<double>(kIters);
  }

  std::printf("{\n");
  std::printf("  \"trace_events\": %zu,\n", events.size());
  std::printf("  \"simulate_points\": %zu,\n", sim_points.size());
  std::printf("  \"cold_simulate_ms\": {\"p50\": %.4f, \"p99\": %.4f},\n",
              percentile(cold_ms, 50), percentile(cold_ms, 99));
  std::printf("  \"cached_simulate_ms\": {\"p50\": %.4f, \"p99\": %.4f},\n",
              percentile(warm_ms, 50), percentile(warm_ms, 99));
  std::printf("  \"mixed_load\": {\"threads\": %zu, \"requests\": %zu, "
              "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"wall_ms\": %.1f},\n",
              num_threads, num_threads * per_thread,
              percentile(mixed_ms, 50), percentile(mixed_ms, 99),
              mixed_wall_ms);
  std::printf("  \"predict_batch\": {\"configs\": %zu, \"ms\": %.3f, "
              "\"configs_per_second\": %.0f},\n",
              predict_configs, predict_ms,
              1000.0 * static_cast<double>(predict_configs) / predict_ms);
  std::printf("  \"fault_point_disarmed_ns\": %.4f,\n", fault_point_ns);
  std::printf("  \"cache_hit_rate\": %.4f\n", hit_rate);
  std::printf("}\n");
  return 0;
}
