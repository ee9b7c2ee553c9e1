#include "gmd/service/service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/metrics.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::service {
namespace {

/// Shared fixtures (store + deployed model on disk) built once: the
/// sweep that trains the model is the expensive part.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/gmd_service_test_" +
                           std::to_string(::getpid()));
    std::filesystem::create_directories(*dir_);
    store_path_ = new std::string(*dir_ + "/workload.gmdt");

    graph::UniformRandomParams params;
    params.num_vertices = 96;
    params.edge_factor = 8;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    const auto g = graph::CsrGraph::from_edge_list(list);
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    tracestore::TraceStoreWriterOptions wopts;
    wopts.events_per_chunk = 2000;
    tracestore::write_trace_store(*store_path_, sink.events(), wopts);

    // Every 4th reduced-space point: enough rows to train on, and the
    // reference rows for bit-identity checks.
    const std::vector<dse::DesignPoint> space = dse::reduced_design_space();
    points_ = new std::vector<dse::DesignPoint>();
    for (std::size_t i = 0; i < space.size(); i += 4) {
      points_->push_back(space[i]);
    }
    tracestore::TraceStoreReader store(*store_path_);
    rows_ = new std::vector<dse::SweepRow>(dse::run_sweep(*points_, store));

    model_path_ = new std::string(*dir_ + "/bandwidth.gmdm");
    dse::SurrogateSuite::deploy(*rows_, "bandwidth_mbs", "linear")
        .save_file(*model_path_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete store_path_;
    delete model_path_;
    delete points_;
    delete rows_;
  }

  /// A service with the fixture store + model pre-registered.
  static std::unique_ptr<Service> make_service(ServiceOptions options = {}) {
    auto service = std::make_unique<Service>(options);
    service->traces().register_store("bfs", *store_path_);
    service->models().register_model("bw", *model_path_);
    return service;
  }

  static Json simulate_request(std::span<const dse::DesignPoint> points) {
    Json request;
    request["verb"] = "simulate";
    request["trace"] = "bfs";
    Json::Array array;
    for (const auto& point : points) {
      array.push_back(design_point_to_json(point));
    }
    request["points"] = Json(std::move(array));
    return request;
  }

  static std::string* dir_;
  static std::string* store_path_;
  static std::string* model_path_;
  static std::vector<dse::DesignPoint>* points_;
  static std::vector<dse::SweepRow>* rows_;
};

std::string* ServiceTest::dir_ = nullptr;
std::string* ServiceTest::store_path_ = nullptr;
std::string* ServiceTest::model_path_ = nullptr;
std::vector<dse::DesignPoint>* ServiceTest::points_ = nullptr;
std::vector<dse::SweepRow>* ServiceTest::rows_ = nullptr;

/// Collects async responses and lets tests block for a target count.
struct SinkCollector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Json> responses;

  Service::ResponseSink sink() {
    return [this](std::string line) {
      Json parsed = Json::parse(line);
      const std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(parsed));
      cv.notify_all();
    };
  }
  std::vector<Json> wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return responses.size() >= count; });
    return responses;
  }
};

TEST_F(ServiceTest, HealthAndStatsAnswerSynchronously) {
  auto service = make_service();
  const Json health = Json::parse(service->handle(R"({"verb":"health"})"));
  EXPECT_TRUE(health.bool_or("ok", false));
  EXPECT_EQ(health.string_or("status", ""), "ok");

  const Json stats = Json::parse(service->handle(R"({"verb":"stats"})"));
  EXPECT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.at("traces").as_number(), 1.0);
  EXPECT_EQ(stats.at("models").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("capacity").as_number(), 4096.0);
  EXPECT_GE(stats.at("scheduler").at("threads").as_number(), 1.0);
  EXPECT_EQ(stats.at("requests").at("received").as_number(), 2.0);
}

TEST_F(ServiceTest, RegistersTraceAndModelThroughTheProtocol) {
  Service service;
  Json register_trace;
  register_trace["verb"] = "register_trace";
  register_trace["alias"] = "bfs";
  register_trace["path"] = *store_path_;
  const Json trace_ack = Json::parse(service.handle(register_trace.dump()));
  ASSERT_TRUE(trace_ack.bool_or("ok", false)) << trace_ack.dump();
  EXPECT_EQ(trace_ack.at("checksum").as_string().size(), 16u);

  Json register_model;
  register_model["verb"] = "register_model";
  register_model["name"] = "bw";
  register_model["path"] = *model_path_;
  const Json model_ack = Json::parse(service.handle(register_model.dump()));
  ASSERT_TRUE(model_ack.bool_or("ok", false)) << model_ack.dump();
  EXPECT_EQ(model_ack.string_or("family", ""), "linear");

  // Both resources are immediately usable.
  const Json response = Json::parse(
      service.handle(simulate_request(std::span(*points_).first(1)).dump()));
  EXPECT_TRUE(response.bool_or("ok", false)) << response.dump();
}

// The heart of the cache contract: a service answer — cold or cached —
// carries exactly the numbers run_sweep produced for the same store and
// points, surviving the %.17g JSON round-trip bit for bit.
TEST_F(ServiceTest, SimulateMatchesRunSweepAndCacheHitsAreIdentical) {
  auto service = make_service();
  const auto slice = std::span(*points_).first(6);
  const Json request = simulate_request(slice);

  const Json cold = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(cold.bool_or("ok", false)) << cold.dump();
  EXPECT_EQ(cold.number_or("cache_hits", -1.0), 0.0);
  const Json warm = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(warm.bool_or("ok", false)) << warm.dump();
  EXPECT_EQ(warm.number_or("cache_hits", -1.0),
            static_cast<double>(slice.size()));

  for (const Json* response : {&cold, &warm}) {
    const bool cached = response == &warm;
    const Json::Array& rows = response->at("rows").as_array();
    ASSERT_EQ(rows.size(), slice.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].bool_or("cached", !cached), cached);
      const auto names = memsim::MemoryMetrics::metric_names();
      const auto values = (*rows_)[i].metrics.metric_values();
      for (std::size_t m = 0; m < names.size(); ++m) {
        EXPECT_EQ(rows[i].at("metrics").at(std::string(names[m])).as_number(),
                  values[m])
            << (cached ? "cached" : "cold") << " row " << i << " metric "
            << names[m];
      }
    }
  }
}

TEST_F(ServiceTest, PredictMatchesTheDeployedModelExactly) {
  auto service = make_service();
  Json request;
  request["verb"] = "predict";
  request["model"] = "bw";
  Json::Array array;
  for (const auto& point : *points_) {
    array.push_back(design_point_to_json(point));
  }
  request["points"] = Json(std::move(array));
  const Json response = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  EXPECT_EQ(response.string_or("family", ""), "linear");

  const auto model = service->models().find("bw");
  const std::vector<double> expected = model->predict(*points_);
  const Json::Array& values = response.at("values").as_array();
  ASSERT_EQ(values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i].as_number(), expected[i]) << i;
  }
}

TEST_F(ServiceTest, RecommendPicksTheArgBestCandidate) {
  auto service = make_service();
  Json request;
  request["verb"] = "recommend";
  request["metric"] = "bandwidth_mbs";
  request["model"] = "bw";
  Json::Array array;
  for (const auto& point : *points_) {
    array.push_back(design_point_to_json(point));
  }
  request["points"] = Json(std::move(array));
  const Json response = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  EXPECT_EQ(response.string_or("direction", ""), "maximize");
  EXPECT_EQ(response.number_or("candidates", 0.0),
            static_cast<double>(points_->size()));

  const auto model = service->models().find("bw");
  const std::vector<double> predicted = model->predict(*points_);
  std::size_t best = 0;
  for (std::size_t i = 1; i < predicted.size(); ++i) {
    if (predicted[i] > predicted[best]) best = i;
  }
  EXPECT_EQ(response.at("value").as_number(), predicted[best]);
  EXPECT_EQ(response.at("best").at("id").as_string(), (*points_)[best].id());
}

TEST_F(ServiceTest, UnknownResourcesAnswerNotFound) {
  auto service = make_service();
  Json simulate = simulate_request(std::span(*points_).first(1));
  simulate["trace"] = "nope";
  const Json trace_miss = Json::parse(service->handle(simulate.dump()));
  EXPECT_FALSE(trace_miss.bool_or("ok", true));
  EXPECT_EQ(trace_miss.at("error").string_or("code", ""), "not-found");

  Json predict;
  predict["verb"] = "predict";
  predict["model"] = "nope";
  predict["points"] = Json(Json::Array{design_point_to_json((*points_)[0])});
  const Json model_miss = Json::parse(service->handle(predict.dump()));
  EXPECT_FALSE(model_miss.bool_or("ok", true));
  EXPECT_EQ(model_miss.at("error").string_or("code", ""), "not-found");
}

TEST_F(ServiceTest, MalformedLinesProduceExactlyOneErrorResponse) {
  auto service = make_service();
  for (const char* bad :
       {"{not json", R"({"id":9})", R"({"verb":"no_such_verb","id":9})",
        R"({"verb":"simulate","id":9,"trace":"bfs","points":[]})"}) {
    SinkCollector collector;
    service->handle_line(bad, collector.sink());
    const std::vector<Json> responses = collector.wait_for(1);
    ASSERT_EQ(responses.size(), 1u) << bad;
    EXPECT_FALSE(responses[0].bool_or("ok", true)) << bad;
    EXPECT_FALSE(
        responses[0].at("error").string_or("message", "").empty())
        << bad;
  }
}

TEST_F(ServiceTest, ExpiredDeadlineAnswersTimeoutEvenWhenCached) {
  auto service = make_service();
  Json request = simulate_request(std::span(*points_).first(1));
  const Json primed = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(primed.bool_or("ok", false));

  request["deadline_ms"] = 0.000001;
  const Json response = Json::parse(service->handle(request.dump()));
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_EQ(response.at("error").string_or("code", ""), "timeout");
}

TEST_F(ServiceTest, TinyQueueShedsLoadWithTypedOverloadErrors) {
  ServiceOptions options;
  options.num_threads = 1;
  options.max_queue_depth = 1;
  auto service = make_service(options);

  // First request simulates every fixture point (long-running on the
  // single worker); the burst behind it must overflow the depth-1 queue.
  constexpr std::size_t kBurst = 16;
  SinkCollector collector;
  const auto sink = collector.sink();
  service->handle_line(simulate_request(*points_).dump(), sink);
  for (std::size_t k = 0; k < kBurst; ++k) {
    // Distinct frequencies defeat the result cache.
    dse::DesignPoint point = (*points_)[0];
    point.cpu_freq_mhz = 1000 + 17 * static_cast<std::uint32_t>(k);
    service->handle_line(simulate_request({&point, 1}).dump(), sink);
  }

  const std::vector<Json> responses = collector.wait_for(kBurst + 1);
  std::size_t succeeded = 0;
  std::size_t overloaded = 0;
  for (const Json& response : responses) {
    if (response.bool_or("ok", false)) {
      ++succeeded;
    } else if (response.at("error").string_or("code", "") == "overloaded") {
      ++overloaded;
    }
  }
  EXPECT_GE(succeeded, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_EQ(succeeded + overloaded, kBurst + 1);

  // Shedding is recoverable: the service still answers afterwards.
  const Json health = Json::parse(service->handle(R"({"verb":"health"})"));
  EXPECT_TRUE(health.bool_or("ok", false));
}

TEST_F(ServiceTest, ConcurrentMixedLoadCompletesEveryRequest) {
  auto service = make_service();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 8;
  SinkCollector collector;
  const auto sink = collector.sink();

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        Json request;
        switch ((t + k) % 4) {
          case 0: {
            const std::size_t at = (t * kPerThread + k) % points_->size();
            request = simulate_request(std::span(*points_).subspan(at, 1));
            break;
          }
          case 1: {
            request["verb"] = "predict";
            request["model"] = "bw";
            request["points"] =
                Json(Json::Array{design_point_to_json((*points_)[t])});
            break;
          }
          case 2: {
            request["verb"] = "recommend";
            request["metric"] = "bandwidth_mbs";
            request["model"] = "bw";
            break;
          }
          default: request["verb"] = "health"; break;
        }
        service->handle_line(request.dump(), sink);
      }
    });
  }
  for (auto& thread : clients) thread.join();

  const std::vector<Json> responses = collector.wait_for(kThreads * kPerThread);
  ASSERT_EQ(responses.size(), kThreads * kPerThread);
  for (const Json& response : responses) {
    EXPECT_TRUE(response.bool_or("ok", false)) << response.dump();
  }
}

TEST_F(ServiceTest, DrainCompletesAcceptedWorkAndRefusesNew) {
  auto service = make_service();
  SinkCollector collector;
  const auto sink = collector.sink();
  constexpr std::size_t kAccepted = 8;
  for (std::size_t k = 0; k < kAccepted; ++k) {
    service->handle_line(
        simulate_request(std::span(*points_).subspan(k, 1)).dump(), sink);
  }
  service->drain();
  EXPECT_TRUE(service->draining());

  // Every accepted request answered before drain() returned.
  {
    const std::lock_guard<std::mutex> lock(collector.mutex);
    ASSERT_EQ(collector.responses.size(), kAccepted);
    for (const Json& response : collector.responses) {
      EXPECT_TRUE(response.bool_or("ok", false)) << response.dump();
    }
  }

  // Sync verbs still answer (reporting the drain); async verbs are
  // refused with a typed cancellation.
  const Json health = Json::parse(service->handle(R"({"verb":"health"})"));
  EXPECT_EQ(health.string_or("status", ""), "draining");
  const Json refused = Json::parse(
      service->handle(simulate_request(std::span(*points_).first(1)).dump()));
  EXPECT_FALSE(refused.bool_or("ok", true));
  EXPECT_EQ(refused.at("error").string_or("code", ""), "cancelled");
}

TEST_F(ServiceTest, SampledSimulationReportsConfidenceIntervals) {
  auto service = make_service();
  // Single-tech point so the sampled run has chunked replay to sample.
  dse::DesignPoint point = (*points_)[0];
  point.kind = dse::MemoryKind::kDram;
  Json request = simulate_request({&point, 1});
  request["sampling"]["fraction"] = 0.5;
  request["sampling"]["seed"] = 7;
  request["sampling"]["chunk_events"] = 500;
  const Json response = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  const Json& row = response.at("rows").as_array()[0];
  ASSERT_FALSE(row.at("ci").is_null());
  EXPECT_FALSE(row.at("ci").as_array().empty());

  // Same geometry is a cache hit; different seed is not.
  const Json warm = Json::parse(service->handle(request.dump()));
  EXPECT_EQ(warm.number_or("cache_hits", -1.0), 1.0);
  request["sampling"]["seed"] = 8;
  const Json reseeded = Json::parse(service->handle(request.dump()));
  EXPECT_EQ(reseeded.number_or("cache_hits", -1.0), 0.0);
}

TEST_F(ServiceTest, SampledSeedMustBeAnExactUnsignedInteger) {
  auto service = make_service();
  dse::DesignPoint point = (*points_)[0];
  point.kind = dse::MemoryKind::kDram;
  Json request = simulate_request({&point, 1});
  request["sampling"]["fraction"] = 0.5;
  // Negative, past 2^64, exactly 2^64 - 1 as JSON writes it (which a
  // double rounds up to 2^64), and fractional: none may reach the
  // sampler cast or truncated.
  for (const double bad : {-1.0, 1e30, 18446744073709551615.0, 1.5}) {
    request["sampling"]["seed"] = bad;
    const Json response = Json::parse(service->handle(request.dump()));
    EXPECT_FALSE(response.bool_or("ok", true)) << bad;
    EXPECT_EQ(response.at("error").string_or("code", ""), "invalid-data")
        << bad;
  }

  // 2^53, the largest seed a JSON double holds exactly, is accepted and
  // seeds the sampler as simulate_point would.
  const std::uint64_t seed = std::uint64_t{1} << 53;
  request["sampling"]["seed"] = static_cast<double>(seed);
  const Json response = Json::parse(service->handle(request.dump()));
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  dse::SimulateOptions options;
  options.sample_fraction = 0.5;
  options.sample_seed = seed;
  tracestore::TraceStoreReader store(*store_path_);
  const dse::MetricsRow reference = dse::simulate_point(store, point, options);
  const auto names = memsim::MemoryMetrics::metric_names();
  const auto values = reference.metrics.metric_values();
  const Json& metrics = response.at("rows").as_array()[0].at("metrics");
  for (std::size_t m = 0; m < names.size(); ++m) {
    EXPECT_EQ(metrics.at(std::string(names[m])).as_number(), values[m])
        << names[m];
  }
}

// The service keeps one predecoded feed per clock-free geometry a
// request reaches: the 416-point paper grid reaches four (two channel
// counts, single-technology and hybrid), whatever the clocks.
class ServiceFeedBound : public ServiceTest {};

TEST_F(ServiceFeedBound, PaperGridHoldsOneFeedPerGeometry) {
  // A result cache far smaller than the grid: the second pass misses it
  // and replays the cached feeds again.
  ServiceOptions options;
  options.cache_capacity = 8;
  options.cache_shards = 1;
  auto service = make_service(options);
  const std::vector<dse::DesignPoint> grid = dse::paper_design_space();
  std::set<std::string> geometries;
  for (const dse::DesignPoint& point : grid) {
    geometries.insert(dse::feed_key(point));
  }
  ASSERT_EQ(geometries.size(), 4u);

  tracestore::TraceStoreReader store(*store_path_);
  const std::vector<dse::SweepRow> reference = dse::run_sweep(grid, store);
  const auto names = memsim::MemoryMetrics::metric_names();
  for (const int pass : {1, 2}) {
    const Json response =
        Json::parse(service->handle(simulate_request(grid).dump()));
    ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
    EXPECT_LT(response.number_or("cache_hits", -1.0), 8.5);
    EXPECT_EQ(service->traces().cached_feeds(), geometries.size())
        << "pass " << pass;
    const Json::Array& rows = response.at("rows").as_array();
    ASSERT_EQ(rows.size(), grid.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(reference[i].ok()) << reference[i].error;
      const auto values = reference[i].metrics.metric_values();
      for (std::size_t m = 0; m < names.size(); ++m) {
        ASSERT_EQ(rows[i].at("metrics").at(std::string(names[m])).as_number(),
                  values[m])
            << "pass " << pass << " " << grid[i].id() << " " << names[m];
      }
    }
  }
  const Json stats = Json::parse(service->handle(R"({"verb":"stats"})"));
  EXPECT_EQ(stats.at("cached_feeds").as_number(),
            static_cast<double>(geometries.size()));

  // Bad content takes every feed built from it down with it.
  EXPECT_TRUE(service->traces().quarantine("bfs", ErrorCode::kTrace, "test"));
  EXPECT_EQ(service->traces().cached_feeds(), 0u);
}

}  // namespace
}  // namespace gmd::service
