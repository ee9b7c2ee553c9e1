/// Distributed sweep integration tests: multi-process lease-sharded
/// runs must produce rows (and a sweep.csv) bit-identical to the
/// single-process runner on the same inputs — including after SIGKILLed
/// workers, stale leases, corrupted journals, and double-claim races.
/// Suites deliberately avoid the "Sweep." name prefix so the fork-based
/// tests stay out of the thread-sanitizer sweep filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/distributed.hpp"
#include "gmd/dse/lease.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define GMD_HAS_FORK 1
#else
#define GMD_HAS_FORK 0
#endif

namespace gmd::dse {
namespace {

namespace fs = std::filesystem;

std::vector<cpusim::MemoryEvent> small_trace() {
  graph::UniformRandomParams params;
  params.num_vertices = 64;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.take();
}

std::vector<DesignPoint> small_space() {
  GridAxes axes;
  axes.kinds = {MemoryKind::kDram, MemoryKind::kNvm};
  axes.cpu_freqs_mhz = {2000, 3000};
  axes.ctrl_freqs_mhz = {666, 800};
  axes.channel_counts = {1, 2};
  axes.trcds = {9};
  return enumerate_grid(axes);  // 16 points
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void expect_rows_bit_identical(const std::vector<SweepRow>& got,
                               const std::vector<SweepRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].outcome, want[i].outcome) << "point " << i;
    EXPECT_EQ(got[i].point.id(), want[i].point.id()) << "point " << i;
    if (want[i].ok()) {
      EXPECT_EQ(got[i].metrics.metric_values(),
                want[i].metrics.metric_values())
          << "point " << i << " must be bit-identical";
    }
  }
}

class DistributedRun : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("gmd_dist_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
    trace_ = small_trace();
    store_path_ = (root_ / "trace.gmdt").string();
    tracestore::write_trace_store(store_path_, trace_);
    store_ = std::make_unique<tracestore::TraceStoreReader>(store_path_);
    points_ = small_space();
  }
  void TearDown() override {
    log::set_sink(nullptr);
    store_.reset();
    fs::remove_all(root_);
  }

  std::string run_dir(const std::string& name) const {
    return (root_ / name).string();
  }

  JournalKey identity(const SweepOptions& sweep = {}) const {
    return sweep_identity(make_journal_key(points_, *store_), sweep);
  }

  fs::path root_;
  std::vector<cpusim::MemoryEvent> trace_;
  std::string store_path_;
  std::unique_ptr<tracestore::TraceStoreReader> store_;
  std::vector<DesignPoint> points_;
};

#if GMD_HAS_FORK

TEST_F(DistributedRun, PaperGridFourWorkersBitIdenticalToSingleProcess) {
  // The acceptance bar: the full 416-point paper grid, four worker
  // processes, merged rows AND sweep.csv byte-identical to run_sweep.
  points_ = paper_design_space();
  SweepOptions sweep;
  const std::vector<SweepRow> reference = run_sweep(points_, *store_, sweep);

  DistributedSweepOptions dist;
  dist.num_workers = 4;
  dist.shard_size = 16;
  DistributedStats stats;
  const auto rows = run_sweep_distributed(points_, *store_, run_dir("a"),
                                          sweep, dist, &stats);
  expect_rows_bit_identical(rows, reference);
  EXPECT_EQ(stats.shards, 26u);  // ceil(416 / 16)

  std::vector<SweepRow> ok_rows;
  for (const auto& row : reference) {
    if (row.ok()) ok_rows.push_back(row);
  }
  const std::string single_csv = (root_ / "single.csv").string();
  sweep_to_table(ok_rows).save(single_csv);
  EXPECT_EQ(slurp(run_dir("a") + "/sweep.csv"), slurp(single_csv))
      << "merged sweep.csv must be byte-identical to the single-process "
         "writer";
}

TEST_F(DistributedRun, CompletedRunResumesAsNoOp) {
  SweepOptions sweep;
  DistributedSweepOptions dist;
  dist.num_workers = 2;
  dist.shard_size = 4;
  const auto first =
      run_sweep_distributed(points_, *store_, run_dir("a"), sweep, dist);
  const std::string csv_before = slurp(run_dir("a") + "/sweep.csv");

  DistributedStats stats;
  const auto second = run_sweep_distributed(points_, *store_, run_dir("a"),
                                            sweep, dist, &stats);
  expect_rows_bit_identical(second, first);
  EXPECT_EQ(stats.tasks_issued, 0u) << "nothing to re-issue on resume";
  EXPECT_EQ(slurp(run_dir("a") + "/sweep.csv"), csv_before);
}

TEST_F(DistributedRun, RunDirRefusesForeignSweepIdentity) {
  SweepOptions sweep;
  DistributedSweepOptions dist;
  dist.num_workers = 1;
  dist.shard_size = 4;
  (void)run_sweep_distributed(points_, *store_, run_dir("a"), sweep, dist);
  // Same directory, different sampling geometry => different identity.
  SweepOptions sampled = sweep;
  sampled.sample_fraction = 0.5;
  try {
    run_sweep_distributed(points_, *store_, run_dir("a"), sampled, dist);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

using DistributedFaults = DistributedRun;

TEST_F(DistributedFaults, SigkilledWorkersMidRunStillBitIdentical) {
  SweepOptions sweep;
  const std::vector<SweepRow> reference = run_sweep(points_, *store_, sweep);

  // Every initial worker _Exit(137)s — no unwinding, no flushes — after
  // journaling three points, so at most 12 of the 16 points exist when
  // the massacre ends: completing the run REQUIRES the supervisor to
  // reap and respawn.  One-point shards maximize mid-shard state at
  // death.
  DistributedSweepOptions dist;
  dist.num_workers = 4;
  dist.shard_size = 1;
  dist.lease_ttl = std::chrono::milliseconds(500);
  dist.kill_workers = 4;
  dist.kill_after_points = 3;
  DistributedStats stats;
  const auto rows = run_sweep_distributed(points_, *store_, run_dir("a"),
                                          sweep, dist, &stats);
  expect_rows_bit_identical(rows, reference);
  EXPECT_GE(stats.workers_respawned, 1u);
}

TEST_F(DistributedFaults, AllWorkersDeadWithoutRespawnThrowsTyped) {
  SweepOptions sweep;
  DistributedSweepOptions dist;
  dist.num_workers = 2;
  dist.shard_size = 1;
  dist.kill_workers = 2;  // every worker dies after one point...
  dist.kill_after_points = 1;
  dist.respawn_dead_workers = false;  // ...and nobody replaces them
  try {
    run_sweep_distributed(points_, *store_, run_dir("a"), sweep, dist);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSimulation);
  }
  // The journaled prefix survives: a clean re-run over the same
  // directory finishes the sweep instead of restarting it.
  dist.kill_workers = 0;
  DistributedStats stats;
  const auto rows =
      run_sweep_distributed(points_, *store_, run_dir("a"), sweep, dist,
                            &stats);
  expect_rows_bit_identical(rows, run_sweep(points_, *store_, sweep));
  EXPECT_LT(stats.tasks_issued, points_.size())
      << "resume must only re-issue what the dead workers never covered";
}

TEST_F(DistributedFaults, StaleLeaseIsExpiredAndReissued) {
  // A lease whose holder died before its first real heartbeat: content
  // never changes, so the supervisor's staleness clock expires it and
  // re-issues the shard under the next generation.
  SweepOptions sweep;
  const RunDir run{run_dir("a")};
  prepare_run(run, identity(sweep), /*shard_size=*/4);
  fs::create_directories(run.leases_dir());
  std::ofstream(run.leases_dir() + "/" + lease_filename({0, 1}))
      << "gmd-sweep-lease v1 shard=0 gen=1 holder=ghost beat=1 wall_ns=0\n";

  DistributedSweepOptions dist;
  dist.num_workers = 2;
  dist.shard_size = 4;
  dist.lease_ttl = std::chrono::milliseconds(200);
  DistributedStats stats;
  const auto rows = run_sweep_distributed(points_, *store_, run.root, sweep,
                                          dist, &stats);
  expect_rows_bit_identical(rows, run_sweep(points_, *store_, sweep));
  EXPECT_GE(stats.leases_expired, 1u);
}

TEST_F(DistributedFaults, CorruptJournalIsReissuedNotFatal) {
  SweepOptions sweep;
  DistributedSweepOptions dist;
  dist.num_workers = 2;
  dist.shard_size = 2;
  const auto first =
      run_sweep_distributed(points_, *store_, run_dir("a"), sweep, dist);

  // Rot one worker's journal behind the run's back — flip a byte in its
  // first record, so the checksum drops that record and every one after
  // it — and force a re-merge by clearing the completion artifacts.
  const RunDir run{run_dir("a")};
  std::string victim;
  for (const auto& entry : fs::directory_iterator(run.journals_dir())) {
    if (entry.path().extension() == ".journal") {
      victim = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t first_record = bytes.find('\n') + 1;
  ASSERT_LT(first_record + 4, bytes.size());
  bytes[first_record + 4] ^= 0x01;
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
  fs::remove(run.complete_path());
  fs::remove(run.csv_path());

  // The supervisor's view of the rotten journal: a typed warning, and
  // its rows no longer count as covered.  (Which process logs it during
  // the re-run is a race: the respawned owner truncates the rot away on
  // load, so the supervisor's merge may never see it.)
  const MergeResult rotten = merge_journals(run, identity(sweep));
  ASSERT_EQ(rotten.warnings.size(), 1u);
  EXPECT_NE(rotten.warnings[0].find("[io] corrupt sweep journal"),
            std::string::npos)
      << rotten.warnings[0];
  EXPECT_FALSE(rotten.complete());

  log::set_sink([](log::Level, std::string_view) {});
  DistributedStats stats;
  const auto rows = run_sweep_distributed(points_, *store_, run.root, sweep,
                                          dist, &stats);
  log::set_sink(nullptr);
  expect_rows_bit_identical(rows, first);
  EXPECT_GT(stats.tasks_issued, 0u)
      << "the corrupt journal's rows count as never-run";
}

TEST_F(DistributedFaults, TruncatedJournalLoadsAsEmptyNotParseError) {
  // Zero-length journal in the run directory (crash during the first
  // append): the merge treats it as empty-with-warning and the run
  // completes normally.
  SweepOptions sweep;
  const RunDir run{run_dir("a")};
  prepare_run(run, identity(sweep), /*shard_size=*/4);
  fs::create_directories(run.journals_dir());
  std::ofstream(run.journal_path("crashed-worker"));  // zero bytes

  DistributedSweepOptions dist;
  dist.num_workers = 2;
  dist.shard_size = 4;
  const auto rows =
      run_sweep_distributed(points_, *store_, run.root, sweep, dist);
  expect_rows_bit_identical(rows, run_sweep(points_, *store_, sweep));
}

#endif  // GMD_HAS_FORK

TEST_F(DistributedRun, DoubleClaimRaceHasExactlyOneWinner) {
  const RunDir run{run_dir("a")};
  fs::create_directories(run.tasks_dir());
  fs::create_directories(run.leases_dir());
  const ShardTask task{0, 1};
  write_task_file(run.tasks_dir() + "/" + task_filename(task), task);

  // Eight claimants race the same task through one rename(2) each.
  std::atomic<int> winners{0};
  std::atomic<int> conflicts{0};
  std::vector<std::thread> racers;
  for (int t = 0; t < 8; ++t) {
    racers.emplace_back([&, t] {
      try {
        HeldLease lease =
            claim_shard(run, task, "racer-" + std::to_string(t));
        ++winners;
        lease.release();
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kLeaseConflict);
        ++conflicts;
      }
    });
  }
  for (auto& racer : racers) racer.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(conflicts.load(), 7);
}

TEST_F(DistributedRun, ConcurrentJournalWritersMergeOrderIndependent) {
  // Two writers, distinct journals, same run identity — the distributed
  // write path.  Whatever the completion order, the merge is the same.
  const std::vector<SweepRow> reference = run_sweep(points_, *store_, {});
  const JournalKey key = identity();

  const auto write_journals = [&](const std::string& dir, bool a_first,
                                  bool interleave) {
    const RunDir run{dir};
    fs::create_directories(run.journals_dir());
    SweepJournal a(run.journal_path("worker-a"), key, "worker-a");
    SweepJournal b(run.journal_path("worker-b"), key, "worker-b");
    // worker-a owns the even indices, worker-b the odd ones; both also
    // journal point 0 (a stolen-lease duplicate).
    std::vector<std::size_t> order(points_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (!a_first) std::reverse(order.begin(), order.end());
    std::thread writer_a([&] {
      for (const std::size_t i : order) {
        if (i % 2 == 0) a.record(i, reference[i]);
      }
    });
    if (!interleave) writer_a.join();
    std::thread writer_b([&] {
      for (const std::size_t i : order) {
        if (i % 2 == 1) b.record(i, reference[i]);
      }
      b.record(0, reference[0]);  // duplicate of worker-a's row
    });
    writer_b.join();
    if (interleave) writer_a.join();
    return merge_journals(run, key);
  };

  const MergeResult forward = write_journals(run_dir("fwd"), true, false);
  const MergeResult backward = write_journals(run_dir("bwd"), false, true);

  for (const MergeResult* merge : {&forward, &backward}) {
    ASSERT_TRUE(merge->complete());
    EXPECT_EQ(merge->duplicates, 1u);
    EXPECT_TRUE(merge->warnings.empty());
    ASSERT_EQ(merge->rows.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(merge->rows[i].has_value());
      EXPECT_EQ(merge->rows[i]->metrics.metric_values(),
                reference[i].metrics.metric_values());
    }
  }
}

}  // namespace
}  // namespace gmd::dse
