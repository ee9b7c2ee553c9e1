/// \file test_chaos_matrix.cpp
/// Seeded fault matrix over every instrumented fault site.  Each
/// scenario arms one site with a deterministic plan, drives the
/// operation that crosses it, and requires one of exactly three
/// outcomes: a correct result, a typed gmd::Error, or (for service
/// requests) an error response with the expected wire code.  After the
/// site is cleared the same operation must succeed — no fault may leave
/// persistent damage behind.  The matrix plus the quarantine scenarios
/// below exceed 30 seeded scenarios across io / store / model / lease /
/// journal / service sites (run under ASan and TSan in CI).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/common/record_log.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/lease.hpp"
#include "gmd/dse/shard.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/service/service.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

namespace gmd {
namespace {

using faultinject::FaultKind;
using faultinject::FaultSpec;
using service::Json;

/// Store + model fixtures built once (the training sweep dominates).
class ChaosMatrixTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/gmd_chaos_matrix_" +
                           std::to_string(::getpid()));
    std::filesystem::create_directories(*dir_);
    store_path_ = new std::string(*dir_ + "/workload.gmdt");

    graph::UniformRandomParams params;
    params.num_vertices = 64;
    params.edge_factor = 8;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    const auto g = graph::CsrGraph::from_edge_list(list);
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    tracestore::TraceStoreWriterOptions wopts;
    wopts.events_per_chunk = 1000;
    tracestore::write_trace_store(*store_path_, sink.events(), wopts);

    const std::vector<dse::DesignPoint> space = dse::reduced_design_space();
    std::vector<dse::DesignPoint> train;
    for (std::size_t i = 0; i < space.size(); i += 4) train.push_back(space[i]);
    tracestore::TraceStoreReader store(*store_path_);
    const std::vector<dse::SweepRow> rows = dse::run_sweep(train, store);
    model_path_ = new std::string(*dir_ + "/bandwidth.gmdm");
    dse::SurrogateSuite::deploy(rows, "bandwidth_mbs", "linear")
        .save_file(*model_path_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete store_path_;
    delete model_path_;
  }

  void SetUp() override { faultinject::clear(); }
  void TearDown() override { faultinject::clear(); }

  static std::string* dir_;
  static std::string* store_path_;
  static std::string* model_path_;
};

std::string* ChaosMatrixTest::dir_ = nullptr;
std::string* ChaosMatrixTest::store_path_ = nullptr;
std::string* ChaosMatrixTest::model_path_ = nullptr;

// --- operations that cross each site --------------------------------

void op_atomic_write(const std::string& dir) {
  AtomicFileWriter writer(dir + "/chaos_artifact.txt");
  writer.stream() << "payload\n";
  writer.commit();
}

void op_read_store(const std::string& store_path) {
  tracestore::TraceStoreReader reader(store_path);
  reader.verify();
}

void op_model_roundtrip(const std::string& model_path, const std::string& dir) {
  auto model = dse::SurrogateSuite::DeployedModel::load_file(model_path);
  model.save_file(dir + "/chaos_model.gmdm");
}

void op_lease(const std::string& dir) {
  dse::RunDir run{dir + "/chaos_run"};
  // Fresh run dir each call: a fault mid-protocol (claimed lease, torn
  // heartbeat) must not make the next call fail for protocol reasons.
  std::filesystem::remove_all(run.root);
  std::filesystem::create_directories(run.tasks_dir());
  std::filesystem::create_directories(run.leases_dir());
  dse::ShardTask task;
  task.shard = 0;
  task.generation = 1;
  dse::write_task_file(run.tasks_dir() + "/" + dse::task_filename(task), task);
  auto lease = dse::try_claim_shard(run, task, "chaos-worker");
  if (lease.has_value()) {
    lease->heartbeat();
    lease->release();
  }
}

void op_record_log(const std::string& dir) {
  // Continues whatever log the previous call left, torn or not: a fault
  // mid-append may cost that one record, never the log.
  const std::string path = dir + "/chaos.log";
  RecordLog log(path, "chaos-log v1");
  log.open([](const std::string&) {});
  log.append("payload");
}

// --- the matrix ------------------------------------------------------

struct DirectScenario {
  const char* site;
  FaultKind kind;
  std::uint64_t fail_nth;
  double probability;
  std::uint64_t seed;
  /// Which operation reaches the site: 0 write, 1 store, 2 model,
  /// 3 lease, 4 record log.
  int op;
};

constexpr DirectScenario kDirectMatrix[] = {
    // io sites: the atomic temp-then-rename writer.
    {"atomic_file.open", FaultKind::kIo, 1, 1.0, 1, 0},
    {"atomic_file.open", FaultKind::kUnavailable, 1, 1.0, 2, 0},
    {"atomic_file.commit", FaultKind::kIo, 1, 1.0, 3, 0},
    {"atomic_file.commit", FaultKind::kPartialWrite, 1, 1.0, 4, 0},
    {"atomic_file.commit", FaultKind::kTimeout, 1, 1.0, 5, 0},
    {"atomic_file.commit", FaultKind::kIo, 1, 0.5, 6, 0},
    // store sites: mmap open and per-chunk checksum verification.
    {"mapped_file.open", FaultKind::kIo, 1, 1.0, 7, 1},
    {"mapped_file.open", FaultKind::kShortRead, 1, 1.0, 8, 1},
    {"mapped_file.open", FaultKind::kUnavailable, 1, 1.0, 9, 1},
    {"tracestore.chunk_verify", FaultKind::kInvalidData, 1, 1.0, 10, 1},
    {"tracestore.chunk_verify", FaultKind::kIo, 2, 1.0, 11, 1},
    {"tracestore.chunk_verify", FaultKind::kInvalidData, 1, 0.5, 12, 1},
    // model sites: scaler serialization and deployed-model load.
    {"serialize.load_scaler", FaultKind::kInvalidData, 1, 1.0, 13, 2},
    {"serialize.load_scaler", FaultKind::kIo, 1, 1.0, 14, 2},
    {"serialize.save_scaler", FaultKind::kIo, 1, 1.0, 15, 2},
    {"surrogate.model_load", FaultKind::kIo, 1, 1.0, 16, 2},
    {"surrogate.model_load", FaultKind::kInvalidData, 1, 1.0, 17, 2},
    {"surrogate.model_load", FaultKind::kUnavailable, 1, 1.0, 18, 2},
    // lease sites: claim rename and heartbeat stamping.
    {"lease.claim", FaultKind::kIo, 1, 1.0, 19, 3},
    {"lease.claim", FaultKind::kUnavailable, 1, 1.0, 20, 3},
    {"lease.heartbeat", FaultKind::kIo, 1, 1.0, 21, 3},
    {"lease.heartbeat", FaultKind::kTimeout, 1, 1.0, 22, 3},
    // journal site: one append to a record log (sweep journal, pipeline
    // manifest, explorer rounds).
    {"record_log.append", FaultKind::kIo, 1, 1.0, 23, 4},
    {"record_log.append", FaultKind::kPartialWrite, 1, 1.0, 24, 4},
};

TEST_F(ChaosMatrixTest, DirectSitesFailTypedAndRecoverOnceCleared) {
  for (const DirectScenario& scenario : kDirectMatrix) {
    SCOPED_TRACE(std::string(scenario.site) + "/" +
                 std::string(faultinject::to_string(scenario.kind)) + "/seed" +
                 std::to_string(scenario.seed));
    faultinject::clear();
    FaultSpec spec;
    spec.kind = scenario.kind;
    spec.fail_nth = scenario.fail_nth;
    spec.probability = scenario.probability;
    spec.seed = scenario.seed;
    faultinject::arm(scenario.site, spec);

    const auto run_op = [&] {
      switch (scenario.op) {
        case 0: op_atomic_write(*dir_); break;
        case 1: op_read_store(*store_path_); break;
        case 2: op_model_roundtrip(*model_path_, *dir_); break;
        case 3: op_lease(*dir_); break;
        default: op_record_log(*dir_); break;
      }
    };

    // Outcome must be binary: success, or a *typed* error.  Anything
    // else (crash, hang, foreign exception) fails the test harness.
    bool typed_error = false;
    bool succeeded = false;
    try {
      // Drive the operation a few times so nth>1 / p<1 plans get
      // eligible hits; each iteration is all-or-nothing.
      for (int i = 0; i < 4 && !typed_error; ++i) run_op();
      succeeded = true;
    } catch (const Error& e) {
      typed_error = true;
      EXPECT_FALSE(std::string(e.what()).empty());
      if (scenario.probability >= 1.0 && scenario.fail_nth == 1 &&
          scenario.kind != FaultKind::kShortRead) {
        // Deterministic first-hit plans must raise the mapped code at
        // the site itself.
        EXPECT_EQ(e.code(), faultinject::error_code_for(scenario.kind));
      }
    }
    EXPECT_TRUE(succeeded || typed_error);

    // Disarmed, the same operation must succeed: no persistent damage.
    faultinject::clear();
    EXPECT_NO_THROW(run_op()) << "operation did not recover after disarm";
  }
}

TEST_F(ChaosMatrixTest, ShortReadYieldsTypedTraceErrorNotCrash) {
  FaultSpec spec;
  spec.kind = FaultKind::kShortRead;
  faultinject::arm("mapped_file.open", spec);
  try {
    tracestore::TraceStoreReader reader(*store_path_);
    reader.verify();
    FAIL() << "a halved mapping must fail the store's bounds/checksum checks";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTrace);
  }
}

TEST_F(ChaosMatrixTest, PartialWriteLeavesOldArtifactIntact) {
  const std::string path = *dir_ + "/torn_target.txt";
  {
    AtomicFileWriter writer(path);
    writer.stream() << "original\n";
    writer.commit();
  }
  FaultSpec spec;
  spec.kind = FaultKind::kPartialWrite;
  spec.one_shot = true;
  faultinject::arm("atomic_file.commit", spec);
  try {
    AtomicFileWriter writer(path);
    writer.stream() << "replacement that must never land\n";
    writer.commit();
    FAIL() << "torn commit must raise";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  // The torn temp is discarded and the committed artifact untouched.
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "original");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ChaosMatrixTest, TornJournalAppendMidSweepResumesBitIdentical) {
  // The sweep journal's durability path: the fourth append tears and
  // kills a fail-fast sweep.  Resume must restore exactly the three
  // complete records before the tear, warn once, and end with rows
  // bit-identical to an uninterrupted run.
  tracestore::TraceStoreReader store(*store_path_);
  std::vector<dse::DesignPoint> points = dse::reduced_design_space();
  points.resize(8);
  const std::vector<dse::SweepRow> reference = dse::run_sweep(points, store);
  const std::string journal = *dir_ + "/torn_sweep.journal";
  std::filesystem::remove(journal);

  dse::SweepOptions options;
  options.checkpoint_path = journal;
  options.num_threads = 1;  // one append order, so the tear lands on #4
  FaultSpec spec;
  spec.kind = FaultKind::kPartialWrite;
  spec.fail_nth = 4;
  spec.one_shot = true;
  faultinject::arm("record_log.append", spec);
  try {
    dse::run_sweep(points, store, options);
    FAIL() << "the torn append must fail the fail-fast sweep";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  faultinject::clear();

  options.resume = true;
  std::atomic<std::size_t> simulated{0};
  options.fault_hook = [&](std::size_t, std::uint32_t) { ++simulated; };
  std::vector<std::string> warnings;
  log::set_sink([&warnings](log::Level level, std::string_view msg) {
    if (level == log::Level::kWarn) warnings.emplace_back(msg);
  });
  const std::vector<dse::SweepRow> rows = dse::run_sweep(points, store, options);
  log::set_sink(nullptr);

  EXPECT_EQ(simulated.load(), points.size() - 3);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("[io]"), std::string::npos) << warnings[0];
  ASSERT_EQ(rows.size(), reference.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].metrics.metric_values(),
              reference[i].metrics.metric_values())
        << "point " << i;
  }
}

// --- service-layer scenarios ----------------------------------------

struct ServiceScenario {
  const char* site;
  FaultKind kind;
  const char* verb;  ///< Request to issue: the verb field.
};

constexpr ServiceScenario kServiceMatrix[] = {
    {"service.health", FaultKind::kUnavailable, "health"},
    {"service.stats", FaultKind::kTimeout, "stats"},
    {"service.stats", FaultKind::kIo, "stats"},
    {"service.simulate", FaultKind::kUnavailable, "simulate"},
    {"service.simulate", FaultKind::kTimeout, "simulate"},
    {"service.simulate", FaultKind::kIo, "simulate"},
    {"service.predict", FaultKind::kUnavailable, "predict"},
    {"service.predict", FaultKind::kIo, "predict"},
    {"service.recommend", FaultKind::kUnavailable, "recommend"},
    {"service.register_trace", FaultKind::kIo, "register_trace"},
    {"service.register_model", FaultKind::kIo, "register_model"},
    {"service.model_predict", FaultKind::kIo, "predict"},
};

class ChaosServiceTest : public ChaosMatrixTest {
 protected:
  static Json request_for(const std::string& verb, const std::string& dir,
                          const std::string& store_path,
                          const std::string& model_path) {
    Json request;
    request["verb"] = verb;
    if (verb == "simulate") {
      request["trace"] = "bfs";
      Json::Array pts;
      pts.push_back(
          service::design_point_to_json(dse::reduced_design_space()[0]));
      request["points"] = Json(std::move(pts));
    } else if (verb == "predict" || verb == "recommend") {
      request["model"] = "bw";
      if (verb == "recommend") request["metric"] = "bandwidth_mbs";
      Json::Array pts;
      pts.push_back(
          service::design_point_to_json(dse::reduced_design_space()[0]));
      request["points"] = Json(std::move(pts));
    } else if (verb == "register_trace") {
      request["alias"] = "bfs2";
      request["path"] = store_path;
    } else if (verb == "register_model") {
      request["name"] = "bw2";
      request["path"] = model_path;
    }
    (void)dir;
    return request;
  }
};

TEST_F(ChaosServiceTest, ServiceVerbsAnswerTypedErrorsAndRecover) {
  service::ServiceOptions options;
  options.num_threads = 2;
  options.quarantine_probe_interval = std::chrono::milliseconds(0);
  service::Service svc(options);
  svc.traces().register_store("bfs", *store_path_);
  svc.models().register_model("bw", *model_path_);

  for (const ServiceScenario& scenario : kServiceMatrix) {
    SCOPED_TRACE(std::string(scenario.site) + "/" +
                 std::string(faultinject::to_string(scenario.kind)));
    faultinject::clear();
    FaultSpec spec;
    spec.kind = scenario.kind;
    spec.one_shot = true;  // the service must survive to the next verb
    faultinject::arm(scenario.site, spec);

    const Json request =
        request_for(scenario.verb, *dir_, *store_path_, *model_path_);
    const Json response = Json::parse(svc.handle(request.dump()));
    // Exactly one response, ok:false, carrying the injected wire code.
    EXPECT_FALSE(response.bool_or("ok", true));
    EXPECT_EQ(response.at("error").string_or("code", ""),
              to_string(faultinject::error_code_for(scenario.kind)));

    // Disarmed (one-shot has fired): the same verb must serve again.
    // Probe interval 0 lets a quarantined resource heal inline.
    const Json retry = Json::parse(svc.handle(request.dump()));
    EXPECT_TRUE(retry.bool_or("ok", false))
        << "verb did not recover: " << retry.dump();
  }
  svc.drain();
}

// --- quarantine / degraded serving ----------------------------------

TEST_F(ChaosServiceTest, QuarantinedStoreKeepsPredictServingAndHealthDegrades) {
  service::ServiceOptions options;
  options.num_threads = 2;
  // Long interval: quarantine must be observable, not healed inline.
  options.quarantine_probe_interval = std::chrono::hours(1);
  service::Service svc(options);
  svc.traces().register_store("bfs", *store_path_);
  svc.models().register_model("bw", *model_path_);

  // A mid-decode checksum failure during simulate quarantines the store.
  FaultSpec spec;
  spec.kind = FaultKind::kInvalidData;
  spec.one_shot = true;
  faultinject::arm("tracestore.chunk_verify", spec);
  const Json sim =
      request_for("simulate", *dir_, *store_path_, *model_path_);
  const Json broken = Json::parse(svc.handle(sim.dump()));
  EXPECT_FALSE(broken.bool_or("ok", true));
  EXPECT_EQ(broken.at("error").string_or("code", ""), "invalid-data");
  EXPECT_EQ(svc.traces().quarantined_count(), 1u);

  // While quarantined: simulate fast-fails "unavailable" (it must not
  // re-run the failing decode in a hot loop)...
  const Json while_down = Json::parse(svc.handle(sim.dump()));
  EXPECT_FALSE(while_down.bool_or("ok", true));
  EXPECT_EQ(while_down.at("error").string_or("code", ""), "unavailable");

  // ...predict through the untouched model keeps serving...
  const Json predict = Json::parse(svc.handle(
      request_for("predict", *dir_, *store_path_, *model_path_).dump()));
  EXPECT_TRUE(predict.bool_or("ok", false)) << predict.dump();

  // ...and health reports degraded with per-resource detail.
  const Json health = Json::parse(svc.handle(R"({"verb":"health"})"));
  EXPECT_TRUE(health.bool_or("ok", false));
  EXPECT_EQ(health.string_or("status", ""), "degraded");
  const auto& resources = health.at("resources").as_array();
  ASSERT_EQ(resources.size(), 1u);
  EXPECT_EQ(resources[0].string_or("type", ""), "trace");
  EXPECT_EQ(resources[0].string_or("status", ""), "quarantined");
  EXPECT_EQ(resources[0].string_or("code", ""), "invalid-data");
  svc.drain();
}

TEST_F(ChaosServiceTest, QuarantinedStoreRecoversViaReprobe) {
  service::ServiceOptions options;
  options.num_threads = 2;
  options.quarantine_probe_interval = std::chrono::milliseconds(0);
  service::Service svc(options);
  svc.traces().register_store("bfs", *store_path_);

  FaultSpec spec;
  spec.kind = FaultKind::kInvalidData;
  spec.one_shot = true;
  faultinject::arm("tracestore.chunk_verify", spec);
  const Json sim =
      request_for("simulate", *dir_, *store_path_, *model_path_);
  const Json broken = Json::parse(svc.handle(sim.dump()));
  EXPECT_FALSE(broken.bool_or("ok", true));
  EXPECT_EQ(svc.traces().quarantined_count(), 1u);

  // The fault was transient (one-shot); the next lookup's probe window
  // is already open (interval 0), the store verifies clean, and serving
  // resumes without any manual re-registration.
  const Json healed = Json::parse(svc.handle(sim.dump()));
  EXPECT_TRUE(healed.bool_or("ok", false)) << healed.dump();
  EXPECT_EQ(svc.traces().quarantined_count(), 0u);
  const Json health = Json::parse(svc.handle(R"({"verb":"health"})"));
  EXPECT_EQ(health.string_or("status", ""), "ok");
  svc.drain();
}

TEST_F(ChaosServiceTest, QuarantinedModelRecoversViaReprobeFromDisk) {
  service::ServiceOptions options;
  options.num_threads = 2;
  options.quarantine_probe_interval = std::chrono::milliseconds(0);
  service::Service svc(options);
  svc.traces().register_store("bfs", *store_path_);
  svc.models().register_model("bw", *model_path_);

  FaultSpec spec;
  spec.kind = FaultKind::kInvalidData;
  spec.one_shot = true;
  faultinject::arm("service.model_predict", spec);
  const Json predict =
      request_for("predict", *dir_, *store_path_, *model_path_);
  const Json broken = Json::parse(svc.handle(predict.dump()));
  EXPECT_FALSE(broken.bool_or("ok", true));
  EXPECT_EQ(broken.at("error").string_or("code", ""), "invalid-data");
  EXPECT_EQ(svc.models().quarantined_count(), 1u);

  // Disk-backed model: the probe reloads the artifact and restores it.
  const Json healed = Json::parse(svc.handle(predict.dump()));
  EXPECT_TRUE(healed.bool_or("ok", false)) << healed.dump();
  EXPECT_EQ(svc.models().quarantined_count(), 0u);
  svc.drain();
}

TEST_F(ChaosServiceTest, MalformedRequestsNeverQuarantineResources) {
  service::ServiceOptions options;
  options.num_threads = 2;
  options.quarantine_probe_interval = std::chrono::hours(1);
  service::Service svc(options);
  svc.traces().register_store("bfs", *store_path_);
  svc.models().register_model("bw", *model_path_);

  // Bad sampling / bad points reference a real store, but request
  // parsing precedes the resource lookup: the store must stay serving.
  for (const char* line : {
           R"({"verb":"simulate","trace":"bfs","points":"notanarray"})",
           R"({"verb":"simulate","trace":"bfs","points":[{"cpu_freq_mhz":"x"}]})",
           R"({"verb":"simulate","trace":"bfs","points":[{}],"sampling":{"fraction":7}})",
           R"({"verb":"predict","model":"bw","points":42})",
       }) {
    const Json response = Json::parse(svc.handle(line));
    EXPECT_FALSE(response.bool_or("ok", true));
  }
  EXPECT_EQ(svc.traces().quarantined_count(), 0u);
  EXPECT_EQ(svc.models().quarantined_count(), 0u);
  const Json health = Json::parse(svc.handle(R"({"verb":"health"})"));
  EXPECT_EQ(health.string_or("status", ""), "ok");
  svc.drain();
}

TEST_F(ChaosServiceTest, DrainingHealthReportsDraining) {
  service::Service svc;
  svc.drain();
  const Json health = svc.health_json();
  EXPECT_EQ(health.string_or("status", ""), "draining");
}

}  // namespace
}  // namespace gmd
