/// \file service_client.cpp
/// End-to-end driver and smoke test for the gmd_serve daemon.  Builds a
/// small BFS trace store and a deployed surrogate, spawns the server
/// over a pipe pair, and exercises the full protocol:
///
///   1. concurrent mixed load (simulate / predict / recommend / stats /
///      health from many threads) with p50/p99 latency reporting,
///   2. cache-hit answers verified bit-identical to a local run_sweep
///      over the same store and points,
///   3. admission control: a tiny-queue server must shed load with
///      typed "overloaded" errors and keep serving afterwards,
///   4. deadline budgets: an already-expired deadline answers "timeout",
///   5. graceful drain: closing stdin answers everything accepted and
///      the server exits 0.
///
/// Exits non-zero on the first failed expectation, so CI can run it as
/// one smoke gate.
///
/// Usage: service_client --server PATH [--vertices N] [--threads N]
///          [--requests-per-thread N] [--bench-json PATH]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gmd/common/cli.hpp"
#include "gmd/common/error.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/service/client.hpp"
#include "gmd/service/service.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace {

using namespace gmd;
using service::Json;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "service_client: FAIL: " << message << "\n";
  std::exit(1);
}

void expect(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

std::vector<cpusim::MemoryEvent> bfs_trace(std::uint32_t vertices) {
  graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

Json simulate_request(const std::string& trace,
                      std::span<const dse::DesignPoint> points) {
  Json request;
  request["verb"] = "simulate";
  request["trace"] = trace;
  Json::Array array;
  for (const auto& point : points) {
    array.push_back(service::design_point_to_json(point));
  }
  request["points"] = Json(std::move(array));
  return request;
}

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) / 100.0 + 0.5);
  return sorted_ms[std::min(index, sorted_ms.size() - 1)];
}

int run(int argc, const char* const* argv) {
  CliParser cli("service_client", "gmd_serve end-to-end smoke driver");
  cli.add_option("server", "", "path to the gmd_serve binary (required)");
  cli.add_option("vertices", "128", "BFS workload graph size");
  cli.add_option("threads", "8", "concurrent client threads");
  cli.add_option("requests-per-thread", "8", "requests per client thread");
  cli.add_option("out-dir", "",
                 "working directory (default: a per-run temp dir)");
  cli.add_option("bench-json", "", "write latency/hit-rate JSON here");
  if (!cli.parse(argc, argv)) return 0;

  const std::string server = cli.get_string("server");
  expect(!server.empty(), "--server is required");
  std::string dir = cli.get_string("out-dir");
  // Without --out-dir each run gets its own scratch directory, removed
  // once every phase has passed, so concurrent runs never share files.
  const bool scratch = dir.empty();
  if (scratch) {
    dir = (std::filesystem::temp_directory_path() /
           ("gmd_service_client_" + std::to_string(::getpid())))
              .string();
  }
  std::filesystem::create_directories(dir);

  // --- fixtures: trace store + deployed surrogate ----------------------
  const std::string store_path = dir + "/workload.gmdt";
  const auto events = bfs_trace(cli.get_count<std::uint32_t>("vertices"));
  tracestore::TraceStoreWriterOptions wopts;
  wopts.events_per_chunk = 4000;
  tracestore::write_trace_store(store_path, events, wopts);
  tracestore::TraceStoreReader store(store_path);

  const std::vector<dse::DesignPoint> space = dse::reduced_design_space();
  const std::vector<dse::SweepRow> rows = dse::run_sweep(space, store);
  const std::string model_path = dir + "/bandwidth.gmdm";
  dse::SurrogateSuite::deploy(rows, "bandwidth_mbs", "gb")
      .save_file(model_path);

  // A mixed-technology slice of the space for simulate requests.
  std::vector<dse::DesignPoint> sim_points;
  for (std::size_t i = 0; i < space.size(); i += 7) {
    sim_points.push_back(space[i]);
  }

  // --- spawn the server -----------------------------------------------
  service::PipeClient::Options spawn;
  spawn.server_path = server;
  spawn.args = {"--traces", "bfs=" + store_path,
                "--models", "bw=" + model_path,
                "--queue-depth", "512"};
  service::PipeClient client(spawn);

  {
    const Json health = client.request([&] {
      Json r;
      r["verb"] = "health";
      return r;
    }());
    expect(health.bool_or("ok", false), "health request failed");
    expect(health.string_or("status", "") == "ok", "server not healthy");
  }

  // --- phase 1: concurrent mixed load ---------------------------------
  const std::size_t num_threads = cli.get_count("threads");
  const std::size_t per_thread = cli.get_count("requests-per-thread");
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> total{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_ms;

  const auto worker = [&](std::size_t t) {
    std::vector<double> local;
    for (std::size_t k = 0; k < per_thread; ++k) {
      Json request;
      switch ((t + k) % 5) {
        case 0: {
          const std::size_t at = (t * per_thread + k) % sim_points.size();
          request = simulate_request(
              "bfs", std::span(sim_points).subspan(at, 1));
          break;
        }
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
        case 2: {
          request["verb"] = "recommend";
          request["metric"] = "bandwidth_mbs";
          request["model"] = "bw";
          Json::Array pts;
          for (const auto& p : space) {
            pts.push_back(service::design_point_to_json(p));
          }
          request["points"] = Json(std::move(pts));
          break;
        }
        case 3: request["verb"] = "stats"; break;
        default: request["verb"] = "health"; break;
      }
      const auto start = std::chrono::steady_clock::now();
      const Json response = client.request(std::move(request));
      const auto elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      local.push_back(elapsed);
      total.fetch_add(1);
      if (response.bool_or("ok", false)) ok_count.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(latency_mutex);
    latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();
  expect(total.load() >= 64, "mixed phase must issue >= 64 requests (got " +
                                 std::to_string(total.load()) + ")");
  expect(ok_count.load() == total.load(),
         "all mixed requests must succeed (ok " +
             std::to_string(ok_count.load()) + "/" +
             std::to_string(total.load()) + ")");
  const double p50 = percentile(latencies_ms, 50);
  const double p99 = percentile(latencies_ms, 99);

  // --- phase 2: cache hits, bit-identical to run_sweep -----------------
  const std::vector<dse::SweepRow> reference =
      dse::run_sweep(sim_points, store);
  const Json cold = client.request(simulate_request("bfs", sim_points));
  expect(cold.bool_or("ok", false), "simulate batch failed");
  const Json warm = client.request(simulate_request("bfs", sim_points));
  expect(warm.bool_or("ok", false), "cached simulate batch failed");
  expect(static_cast<std::size_t>(warm.number_or("cache_hits", 0)) ==
             sim_points.size(),
         "second simulate batch must be all cache hits");

  const auto& names = memsim::MemoryMetrics::metric_names();
  for (const Json* response : {&cold, &warm}) {
    const auto& rows_json = response->at("rows").as_array();
    expect(rows_json.size() == sim_points.size(), "row count mismatch");
    for (std::size_t i = 0; i < rows_json.size(); ++i) {
      const Json& metrics = rows_json[i].at("metrics");
      const std::vector<double> expected =
          reference[i].metrics.metric_values();
      for (std::size_t m = 0; m < names.size(); ++m) {
        const double got = metrics.number_or(names[m], -1.0);
        if (got != expected[m]) {
          fail("metric " + names[m] + " of " + sim_points[i].id() +
               " differs from run_sweep: got " + std::to_string(got) +
               ", want " + std::to_string(expected[m]));
        }
      }
    }
  }

  // --- phase 3 setup: predict 10k+ configs in one request --------------
  {
    std::vector<dse::DesignPoint> big = dse::paper_design_space();
    Json::Array pts;
    while (pts.size() < 10000) {
      for (const auto& p : big) {
        if (pts.size() >= 10000) break;
        pts.push_back(service::design_point_to_json(p));
      }
    }
    const std::size_t batch = pts.size();
    Json request;
    request["verb"] = "predict";
    request["model"] = "bw";
    request["points"] = Json(std::move(pts));
    const auto start = std::chrono::steady_clock::now();
    const Json response = client.request(std::move(request));
    const auto elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    expect(response.bool_or("ok", false), "10k-config predict failed");
    expect(response.at("values").as_array().size() == batch,
           "10k-config predict returned wrong count");
    std::cout << "predict batch: " << batch << " configs in " << elapsed_ms
              << " ms\n";
  }

  // --- phase 4: deadline expiry answers "timeout" ----------------------
  {
    Json request = simulate_request("bfs", std::span(sim_points).subspan(0, 1));
    request["points"].as_array()[0]["cpu_freq_mhz"] = 3333;  // uncached point
    request["deadline_ms"] = 0.000001;
    const Json response = client.request(std::move(request));
    expect(!response.bool_or("ok", true), "expired deadline must fail");
    expect(response.at("error").string_or("code", "") == "timeout",
           "expired deadline must answer code=timeout");
  }

  // --- stats + graceful drain ------------------------------------------
  Json stats;
  {
    Json request;
    request["verb"] = "stats";
    stats = client.request(std::move(request));
    expect(stats.bool_or("ok", false), "stats failed");
    const double hit_rate = stats.at("cache").number_or("hit_rate", 0.0);
    std::cout << "mixed load: " << total.load() << " requests, p50 " << p50
              << " ms, p99 " << p99 << " ms; cache hit rate " << hit_rate
              << "\n";
  }
  const int exit_code = client.close_and_wait();
  expect(exit_code == 0, "graceful drain must exit 0 (got " +
                             std::to_string(exit_code) + ")");

  // --- phase 5: admission control on a tiny server ----------------------
  {
    service::PipeClient::Options tiny;
    tiny.server_path = server;
    tiny.args = {"--traces", "bfs=" + store_path, "--threads", "1",
                 "--queue-depth", "2"};
    service::PipeClient small(tiny);
    std::vector<std::uint64_t> ids;
    for (std::size_t k = 0; k < 32; ++k) {
      Json request = simulate_request(
          "bfs", std::span(sim_points).subspan(k % sim_points.size(), 1));
      // A distinct CPU frequency per request defeats the result cache,
      // so every request is real work and the queue actually fills.
      request["points"].as_array()[0]["cpu_freq_mhz"] = 1000 + 17 * k;
      ids.push_back(small.send(std::move(request)));
    }
    std::size_t overloaded = 0;
    std::size_t succeeded = 0;
    for (const std::uint64_t id : ids) {
      const Json response = small.wait(id);
      if (response.bool_or("ok", false)) {
        ++succeeded;
      } else if (response.at("error").string_or("code", "") == "overloaded") {
        ++overloaded;
      }
    }
    expect(overloaded > 0,
           "a 2-deep queue flooded with 32 simulates must shed load");
    expect(succeeded > 0, "the tiny server must still serve admitted work");
    // Still healthy after shedding.
    Json health;
    health["verb"] = "health";
    expect(small.request(std::move(health)).bool_or("ok", false),
           "server must stay healthy after overload");
    expect(small.close_and_wait() == 0, "tiny server must drain cleanly");
    std::cout << "overload: " << overloaded << " shed, " << succeeded
              << " served\n";
  }

  // --- phase 6: SIGKILL + transparent client retry ----------------------
  {
    service::PipeClient::Options resilient;
    resilient.server_path = server;
    resilient.args = {"--traces", "bfs=" + store_path};
    resilient.retry.max_attempts = 4;
    resilient.retry.initial_backoff = std::chrono::milliseconds(5);
    resilient.retry.restart_on_death = true;
    service::PipeClient survivor(resilient);
    Json health;
    health["verb"] = "health";
    expect(survivor.request(health).bool_or("ok", false),
           "resilient server must come up");
    survivor.kill_server();
    // The client must respawn the server and answer as if nothing
    // happened — the kill is invisible to the caller.
    int attempts = 0;
    const Json recovered = survivor.request_with_retry(
        simulate_request("bfs", std::span(sim_points).subspan(0, 1)),
        &attempts);
    expect(recovered.bool_or("ok", false),
           "retry after SIGKILL must recover (got " + recovered.dump() + ")");
    expect(survivor.restarts() >= 1, "recovery must have respawned the server");
    expect(survivor.close_and_wait() == 0,
           "respawned server must drain cleanly");
    std::cout << "kill-retry: recovered in " << attempts << " attempts, "
              << survivor.restarts() << " restart(s)\n";
  }

  // --- phase 7: injected fault answered typed, then self-heals ----------
  {
    service::PipeClient::Options chaos;
    chaos.server_path = server;
    chaos.args = {"--traces", "bfs=" + store_path, "--quarantine-probe-ms",
                  "0", "--faults",
                  "tracestore.chunk_verify=invalid-data:nth=1:oneshot"};
    service::PipeClient client2(chaos);
    Json request = simulate_request("bfs", std::span(sim_points).subspan(0, 1));
    const Json broken = client2.request(request);
    expect(!broken.bool_or("ok", true),
           "injected checksum fault must fail the first simulate");
    expect(broken.at("error").string_or("code", "") == "invalid-data",
           "injected fault must answer its typed wire code");
    // The store was quarantined; with a zero probe interval the next
    // lookup re-verifies it (the fault was one-shot) and serving resumes.
    const Json healed = client2.request(request);
    expect(healed.bool_or("ok", false),
           "service must self-heal after a transient store fault (got " +
               healed.dump() + ")");
    Json health;
    health["verb"] = "health";
    expect(client2.request(health).string_or("status", "") == "ok",
           "health must report ok after self-healing");
    expect(client2.close_and_wait() == 0, "chaos server must drain cleanly");
    std::cout << "fault-injection: typed error, then self-healed\n";
  }

  const std::string bench_json = cli.get_string("bench-json");
  if (!bench_json.empty()) {
    Json out;
    out["requests"] = total.load();
    out["p50_ms"] = p50;
    out["p99_ms"] = p99;
    out["cache_hit_rate"] = stats.at("cache").number_or("hit_rate", 0.0);
    std::ofstream os(bench_json);
    os << out.dump() << "\n";
  }

  std::cout << "service_client: all phases passed\n";
  if (scratch) std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "service_client: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "service_client: " << e.what() << "\n";
    return 1;
  }
}
