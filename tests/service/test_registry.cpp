// Registry behaviour of the query service: content-checksum aliases,
// shared mappings, quarantine and re-probe of trace stores and models,
// pinned through the public TraceLibrary / ModelRegistry API.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/service/model_registry.hpp"
#include "gmd/service/trace_library.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd::service {
namespace {

using std::chrono::hours;
using std::chrono::milliseconds;

/// The gmd::Error `action` throws (a failed expectation if none).
Error caught(const std::function<void()>& action) {
  try {
    action();
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "expected a gmd::Error";
  return Error(ErrorCode::kUnspecified, "");
}

/// Two stores of different content and one deployed model on disk,
/// built once for the suite.
class ServiceRegistry : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/gmd_service_registry_" +
                           std::to_string(::getpid()));
    std::filesystem::create_directories(*dir_);

    graph::UniformRandomParams params;
    params.num_vertices = 64;
    params.edge_factor = 4;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    const auto g = graph::CsrGraph::from_edge_list(list);
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    const std::vector<cpusim::MemoryEvent>& events = sink.events();

    store_a_ = new std::string(*dir_ + "/a.gmdt");
    store_b_ = new std::string(*dir_ + "/b.gmdt");
    tracestore::write_trace_store(*store_a_, events);
    tracestore::write_trace_store(
        *store_b_, std::vector<cpusim::MemoryEvent>(
                       events.begin(), events.begin() + events.size() / 2));

    const std::vector<dse::DesignPoint> space = dse::reduced_design_space();
    std::vector<dse::DesignPoint> points;
    for (std::size_t i = 0; i < space.size(); i += 8) {
      points.push_back(space[i]);
    }
    tracestore::TraceStoreReader store(*store_a_);
    model_path_ = new std::string(*dir_ + "/bw.gmdm");
    dse::SurrogateSuite::deploy(dse::run_sweep(points, store),
                                "bandwidth_mbs", "linear")
        .save_file(*model_path_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete store_a_;
    delete store_b_;
    delete model_path_;
  }

  static std::string* dir_;
  static std::string* store_a_;
  static std::string* store_b_;
  static std::string* model_path_;
};

std::string* ServiceRegistry::dir_ = nullptr;
std::string* ServiceRegistry::store_a_ = nullptr;
std::string* ServiceRegistry::store_b_ = nullptr;
std::string* ServiceRegistry::model_path_ = nullptr;

TEST_F(ServiceRegistry, HexChecksumFindsAServingStore) {
  TraceLibrary traces;
  const std::uint64_t checksum = traces.register_store("bfs", *store_a_);
  const auto by_hex = traces.find(to_hex16(checksum));
  EXPECT_EQ(by_hex.get(), traces.find("bfs").get());
  EXPECT_EQ(by_hex->content_checksum(), checksum);
}

TEST_F(ServiceRegistry, HexChecksumOfAQuarantinedStoreFailsUnavailable) {
  TraceLibrary traces;
  traces.set_probe_interval(hours(1));
  const std::string hex = to_hex16(traces.register_store("bfs", *store_a_));
  ASSERT_TRUE(traces.quarantine(hex, ErrorCode::kTrace, "bad chunk"));
  EXPECT_EQ(traces.quarantined_count(), 1u);

  for (const std::string& name : {hex, std::string("bfs")}) {
    const Error error = caught([&] { traces.find(name); });
    EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(std::string(error.what()),
              "trace '" + name + "' is quarantined (trace: bad chunk)");
  }
}

TEST_F(ServiceRegistry, SecondAliasSharesTheMappingAndGoesDownWithTheFirst) {
  TraceLibrary traces;
  traces.set_probe_interval(hours(1));
  const std::uint64_t checksum = traces.register_store("first", *store_a_);
  EXPECT_EQ(traces.register_store("second", *store_a_), checksum);
  EXPECT_EQ(traces.find("first").get(), traces.find("second").get());
  EXPECT_EQ(traces.size(), 2u);

  ASSERT_TRUE(traces.quarantine("first", ErrorCode::kTrace, "bad chunk"));
  EXPECT_EQ(traces.size(), 0u);
  EXPECT_EQ(caught([&] { traces.find("second"); }).code(),
            ErrorCode::kUnavailable);
  const std::vector<QuarantinedResource> down = traces.quarantined();
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0].name, "first");
  EXPECT_EQ(down[1].name, "second");
  for (const QuarantinedResource& info : down) {
    EXPECT_EQ(info.path, *store_a_);
    EXPECT_EQ(info.code, ErrorCode::kTrace);
    EXPECT_EQ(info.reason, "bad chunk");
    EXPECT_EQ(info.probes, 0u);
  }
}

TEST_F(ServiceRegistry, TakenAliasRefusesDifferentContent) {
  TraceLibrary traces;
  const std::uint64_t checksum = traces.register_store("bfs", *store_a_);
  EXPECT_EQ(caught([&] { traces.register_store("bfs", *store_b_); }).code(),
            ErrorCode::kConfig);
  EXPECT_EQ(traces.find("bfs")->content_checksum(), checksum);
  // The same content again is an idempotent re-registration.
  EXPECT_EQ(traces.register_store("bfs", *store_a_), checksum);
  EXPECT_EQ(traces.size(), 1u);
}

TEST_F(ServiceRegistry, ReregistrationClearsQuarantine) {
  TraceLibrary traces;
  traces.set_probe_interval(hours(1));
  traces.register_store("bfs", *store_a_);
  ASSERT_TRUE(traces.quarantine("bfs", ErrorCode::kIo, "torn"));
  traces.register_store("bfs", *store_a_);
  EXPECT_EQ(traces.quarantined_count(), 0u);
  EXPECT_NE(traces.find("bfs"), nullptr);

  ModelRegistry models;
  models.set_probe_interval(hours(1));
  models.register_model("bw", *model_path_);
  ASSERT_TRUE(models.quarantine("bw", ErrorCode::kInvalidData, "nan"));
  EXPECT_EQ(caught([&] { models.find("bw"); }).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(models.register_model("bw", *model_path_), "linear");
  EXPECT_EQ(models.quarantined_count(), 0u);
  EXPECT_NE(models.find("bw"), nullptr);
}

TEST_F(ServiceRegistry, InProcessModelIsNeverReprobed) {
  ModelRegistry models;
  models.set_probe_interval(milliseconds(0));
  models.register_model(
      "bw", dse::SurrogateSuite::DeployedModel::load_file(*model_path_));
  ASSERT_TRUE(models.quarantine("bw", ErrorCode::kInvalidData, "nan"));

  const Error error = caught([&] { models.find("bw"); });
  EXPECT_EQ(error.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(std::string(error.what()),
            "model 'bw' is quarantined (invalid-data: registered in-process; "
            "re-register to recover)");
  EXPECT_EQ(models.probe_due(), 0u);
  ASSERT_EQ(models.quarantined().size(), 1u);
  EXPECT_EQ(models.quarantined()[0].path, "");
  EXPECT_EQ(models.size(), 0u);

  // Only an explicit re-registration brings it back.
  models.register_model(
      "bw", dse::SurrogateSuite::DeployedModel::load_file(*model_path_));
  EXPECT_EQ(models.quarantined_count(), 0u);
  EXPECT_NE(models.find("bw"), nullptr);
}

TEST_F(ServiceRegistry, ProbeDueRestoresOnlyElapsedIntervals) {
  TraceLibrary traces;
  traces.register_store("a", *store_a_);
  traces.register_store("b", *store_b_);
  traces.set_probe_interval(milliseconds(0));
  ASSERT_TRUE(traces.quarantine("a", ErrorCode::kTrace, "bad chunk"));
  traces.set_probe_interval(hours(1));
  ASSERT_TRUE(traces.quarantine("b", ErrorCode::kTrace, "bad chunk"));

  EXPECT_EQ(traces.probe_due(), 1u);
  EXPECT_NE(traces.find("a"), nullptr);
  EXPECT_EQ(caught([&] { traces.find("b"); }).code(),
            ErrorCode::kUnavailable);
  ASSERT_EQ(traces.quarantined().size(), 1u);
  EXPECT_EQ(traces.quarantined()[0].name, "b");
  EXPECT_EQ(traces.quarantined()[0].probes, 0u);

  ModelRegistry models;
  models.register_model("m1", *model_path_);
  models.register_model("m2", *model_path_);
  models.set_probe_interval(milliseconds(0));
  ASSERT_TRUE(models.quarantine("m1", ErrorCode::kIo, "torn"));
  models.set_probe_interval(hours(1));
  ASSERT_TRUE(models.quarantine("m2", ErrorCode::kIo, "torn"));

  EXPECT_EQ(models.probe_due(), 1u);
  EXPECT_NE(models.find("m1"), nullptr);
  EXPECT_EQ(caught([&] { models.find("m2"); }).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(models.quarantined_count(), 1u);
}

TEST_F(ServiceRegistry, NotFoundMessagesListTheKnownNames) {
  TraceLibrary traces;
  EXPECT_EQ(std::string(caught([&] { traces.find("x"); }).what()),
            "trace 'x' is not registered (known: none)");
  traces.register_store("b", *store_b_);
  traces.register_store("a", *store_a_);
  const Error trace_miss = caught([&] { traces.find("nope"); });
  EXPECT_EQ(trace_miss.code(), ErrorCode::kNotFound);
  EXPECT_EQ(std::string(trace_miss.what()),
            "trace 'nope' is not registered (known: a, b)");

  ModelRegistry models;
  models.register_model("bw", *model_path_);
  const Error model_miss = caught([&] { models.find("nope"); });
  EXPECT_EQ(model_miss.code(), ErrorCode::kNotFound);
  EXPECT_EQ(std::string(model_miss.what()),
            "model 'nope' is not registered (known: bw)");
}

// Lookups (by alias and by checksum), quarantines and probes racing on
// two aliases of one content: every lookup serves that content or fails
// typed, and once the storm ends every alias recovers.
TEST_F(ServiceRegistry, ConcurrentLookupsQuarantinesAndProbesStayTyped) {
  TraceLibrary traces;
  traces.set_probe_interval(milliseconds(0));
  const std::uint64_t checksum = traces.register_store("a", *store_a_);
  traces.register_store("b", *store_a_);
  const std::vector<std::string> names = {"a", "b", to_hex16(checksum)};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 40; ++i) {
        const std::string& name = names[(i + t) % names.size()];
        try {
          EXPECT_EQ(traces.find(name)->content_checksum(), checksum);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << e.what();
        }
        if (i % 4 == t) traces.quarantine(name, ErrorCode::kTrace, "bad");
        if (i % 5 == 0) traces.probe_due();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  traces.probe_due();
  EXPECT_EQ(traces.quarantined_count(), 0u);
  EXPECT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces.find(names[2])->content_checksum(), checksum);
}

}  // namespace
}  // namespace gmd::service
