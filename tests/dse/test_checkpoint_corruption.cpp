/// Checkpoint-journal corruption: every way a journal can rot on disk —
/// truncation mid-record, a flipped byte, garbage appended, a checksum
/// from a different trace — must resume with a typed warning, restoring
/// exactly the valid records before the damage (none when the header is
/// lost or belongs to another sweep), and the re-swept rows must be
/// bit-identical to a fresh run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/common/record_log.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

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
  axes.ctrl_freqs_mhz = {800};
  axes.channel_counts = {1, 2};
  axes.trcds = {9};
  return enumerate_grid(axes);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = small_trace();
    points_ = small_space();
    journal_path_ = testing::TempDir() + "/gmd_journal_corrupt_" +
                    std::to_string(::getpid()) + "_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    ".journal";
    std::remove(journal_path_.c_str());

    // A complete, valid journal and the bit-exact reference rows.
    reference_ = run_sweep(points_, trace_);
    SweepOptions write;
    write.checkpoint_path = journal_path_;
    run_sweep(points_, trace_, write);
  }

  void TearDown() override {
    log::set_sink(nullptr);
    std::remove(journal_path_.c_str());
  }

  /// Resumes against the (by now damaged) journal and asserts: one
  /// typed warning containing `expected_text`, exactly `restored` rows
  /// taken from the journal and every other point re-simulated, rows
  /// bit-identical to the fresh reference.
  void expect_resume_with_warning(std::size_t restored,
                                  const std::string& expected_text,
                                  ErrorCode expected_code) {
    SweepOptions resume;
    resume.checkpoint_path = journal_path_;
    resume.resume = true;
    std::atomic<int> simulated{0};
    resume.fault_hook = [&](std::size_t, std::uint32_t) { ++simulated; };

    std::vector<std::string> warnings;
    log::set_sink([&warnings](log::Level level, std::string_view msg) {
      if (level == log::Level::kWarn) warnings.emplace_back(msg);
    });
    const auto rows = run_sweep(points_, trace_, resume);
    log::set_sink(nullptr);

    EXPECT_EQ(simulated.load(), static_cast<int>(points_.size() - restored))
        << "damage must cost exactly the records it destroyed";
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find(expected_text), std::string::npos)
        << warnings[0];
    EXPECT_NE(warnings[0].find("[" + std::string(to_string(expected_code)) +
                               "]"),
              std::string::npos)
        << warnings[0];

    expect_bit_identical(rows);
    // The resumed run left a consistent journal for its own
    // invocation: a second resume restores every row.
    SweepJournal journal(journal_path_, make_journal_key(points_, trace_));
    EXPECT_EQ(journal.load().size(), points_.size());
  }

  void expect_bit_identical(const std::vector<SweepRow>& rows) const {
    ASSERT_EQ(rows.size(), reference_.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows[i].ok());
      EXPECT_EQ(rows[i].metrics.metric_values(),
                reference_[i].metrics.metric_values());
    }
  }

  /// Byte offset where each journal line ends (one past its newline).
  static std::vector<std::size_t> line_ends(const std::string& bytes) {
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] == '\n') ends.push_back(i + 1);
    }
    return ends;
  }

  /// Appends a checksum-valid record holding `payload`: damage that
  /// the log framing cannot see, only the journal's parser.
  void append_framed(const std::string& payload) const {
    RecordLog log(journal_path_, scan_record_log(journal_path_)->records[0]);
    log.open([](const std::string&) {});
    log.append(payload);
  }

  std::vector<cpusim::MemoryEvent> trace_;
  std::vector<DesignPoint> points_;
  std::vector<SweepRow> reference_;
  std::string journal_path_;
};

TEST_F(CheckpointCorruption, TruncatedJournalResumesFromScratch) {
  const std::string full = slurp(journal_path_);
  // Cut mid-row so the last record is torn: the rows before the cut
  // survive, the torn one is truncated away and re-simulated.
  const std::size_t cut = full.size() * 2 / 3;
  spill(journal_path_, full.substr(0, cut));
  const auto ends = line_ends(full);
  std::size_t complete_rows = 0;
  while (ends[complete_rows + 1] <= cut) ++complete_rows;
  ASSERT_GT(complete_rows, 0u);
  ASSERT_LT(complete_rows, points_.size());
  expect_resume_with_warning(complete_rows, "unterminated last record",
                             ErrorCode::kIo);
}

TEST_F(CheckpointCorruption, FlippedHeaderByteResumesFromScratch) {
  std::string full = slurp(journal_path_);
  // Flip one byte inside the header's trace checksum field: the header
  // fails its record checksum, so nothing of the journal is usable.
  const std::size_t pos = full.find("trace=") + 8;
  ASSERT_LT(pos, full.size());
  full[pos] = full[pos] == '0' ? '1' : '0';
  spill(journal_path_, full);
  expect_resume_with_warning(0, "record 0 fails its checksum",
                             ErrorCode::kIo);
}

TEST_F(CheckpointCorruption, MismatchedTraceChecksumResumesFromScratch) {
  // Unchanged journal, changed trace: the identity key no longer
  // matches what the journal was written for.
  trace_.push_back({trace_.back().tick + 7, 0xBEEF40, 8, true});
  reference_ = run_sweep(points_, trace_);
  expect_resume_with_warning(0, "unusable journal", ErrorCode::kConfig);
}

TEST_F(CheckpointCorruption, GarbageRowResumesFromScratch) {
  // An unframed line after the last record fails its checksum: every
  // row before it is restored, the garbage is truncated away.
  std::string full = slurp(journal_path_);
  full += "row not-a-number garbage\n";
  spill(journal_path_, full);
  expect_resume_with_warning(points_.size(), "fails its checksum",
                             ErrorCode::kIo);
}

TEST_F(CheckpointCorruption, LoadRetainsNothingOnThrow) {
  // Direct journal-level contract: a checksum-valid record that does
  // not parse throws, adopts nothing and leaves the file untouched; the
  // next record() then starts a fresh journal for this invocation.
  append_framed("bogus record");
  const std::string damaged = slurp(journal_path_);
  SweepJournal journal(journal_path_, make_journal_key(points_, trace_));
  try {
    journal.load();
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo) << e.what();
  }
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(slurp(journal_path_), damaged);

  journal.record(3, reference_[3]);
  SweepJournal reader(journal_path_, make_journal_key(points_, trace_));
  const auto rows = reader.load();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 3u);
}

TEST_F(CheckpointCorruption, RecordWithoutLoadStartsAFreshJournal) {
  // A non-resume sweep never loads: its first record() replaces the
  // complete journal already on disk instead of appending to it.
  SweepJournal journal(journal_path_, make_journal_key(points_, trace_));
  journal.record(1, reference_[1]);
  EXPECT_EQ(journal.size(), 1u);
  SweepJournal reader(journal_path_, make_journal_key(points_, trace_));
  const auto rows = reader.load();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 1u);
  EXPECT_EQ(line_ends(slurp(journal_path_)).size(), 2u);
}

TEST_F(CheckpointCorruption, ZeroLengthJournalLoadsEmptyWithWarning) {
  // A zero-length file holds no header record: under the one torn-tail
  // rule that is an empty log, warned about like any other tear.
  spill(journal_path_, "");
  std::vector<std::string> warnings;
  log::set_sink([&warnings](log::Level level, std::string_view msg) {
    if (level == log::Level::kWarn) warnings.emplace_back(msg);
  });
  SweepJournal journal(journal_path_, make_journal_key(points_, trace_));
  EXPECT_TRUE(journal.load().empty());
  log::set_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("no complete header record"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[0].find("[io]"), std::string::npos);
  journal.record(0, reference_[0]);
  EXPECT_EQ(SweepJournal(journal_path_, make_journal_key(points_, trace_))
                .load()
                .size(),
            1u);
}

TEST_F(CheckpointCorruption, SingleTornLineLoadsEmptyWithWarning) {
  // A lone torn header line (crash while creating the journal): the
  // same rule, an empty log with a warning.
  spill(journal_path_, "gmd-sweep-jour");
  std::vector<std::string> warnings;
  log::set_sink([&warnings](log::Level level, std::string_view msg) {
    if (level == log::Level::kWarn) warnings.emplace_back(msg);
  });
  SweepJournal journal(journal_path_, make_journal_key(points_, trace_));
  EXPECT_TRUE(journal.load().empty());
  log::set_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("no complete header record"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[0].find("truncating 14 byte(s)"), std::string::npos)
      << warnings[0];
}

TEST_F(CheckpointCorruption, EveryCutResumesTheCompleteRowsBeforeIt) {
  // Crash semantics pinned at every byte: a journal cut anywhere
  // resumes exactly the rows whose records are complete before the cut,
  // re-simulates the rest, and ends bit-identical to a fresh run.  Three
  // points keep the (cut, resume) pairs affordable.
  points_.resize(3);
  reference_.resize(3);
  SweepOptions write;
  write.checkpoint_path = journal_path_;
  run_sweep(points_, trace_, write);
  const std::string full = slurp(journal_path_);
  const auto ends = line_ends(full);
  ASSERT_EQ(ends.size(), points_.size() + 1);
  const JournalKey key = make_journal_key(points_, trace_);

  SweepOptions resume;
  resume.checkpoint_path = journal_path_;
  resume.resume = true;
  std::atomic<std::size_t> simulated{0};
  resume.fault_hook = [&](std::size_t, std::uint32_t) { ++simulated; };
  log::set_sink([](log::Level, std::string_view) {});
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    spill(journal_path_, full.substr(0, cut));
    std::size_t complete_rows = 0;
    while (complete_rows + 1 < ends.size() && ends[complete_rows + 1] <= cut) {
      ++complete_rows;
    }
    EXPECT_EQ(scan_journal(journal_path_, key).rows.size(), complete_rows);

    simulated = 0;
    expect_bit_identical(run_sweep(points_, trace_, resume));
    EXPECT_EQ(simulated.load(), points_.size() - complete_rows);
    EXPECT_EQ(slurp(journal_path_).size(), full.size());
  }
  log::set_sink(nullptr);
}

TEST_F(CheckpointCorruption, BitFlipInRecordKRestoresRecordsBeforeK) {
  const std::string full = slurp(journal_path_);
  const auto ends = line_ends(full);
  const JournalKey key = make_journal_key(points_, trace_);
  const std::vector<std::pair<std::size_t, SweepRow>> all =
      SweepJournal(journal_path_, key).load();
  log::set_sink([](log::Level, std::string_view) {});
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    SCOPED_TRACE(testing::Message() << "flip at byte " << pos);
    std::size_t k = 0;  // the record holding byte `pos`; 0 = header
    while (ends[k] <= pos) ++k;
    std::string rotten = full;
    rotten[pos] = static_cast<char>(rotten[pos] ^ (1 << (pos % 8)));
    spill(journal_path_, rotten);
    const auto rows = SweepJournal(journal_path_, key).load();
    ASSERT_EQ(rows.size(), k == 0 ? 0 : k - 1);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(rows[r].first, all[r].first);
      EXPECT_EQ(rows[r].second.metrics.metric_values(),
                all[r].second.metrics.metric_values());
    }
  }
  log::set_sink(nullptr);
}

TEST_F(CheckpointCorruption, OwnerTokenRoundTripsAndDoesNotGateLoad) {
  // Per-worker journals carry owner=<id> in the header; any reader with
  // the right key may load them (the supervisor merges foreign files).
  std::remove(journal_path_.c_str());
  const JournalKey key = make_journal_key(points_, trace_);
  SweepJournal writer(journal_path_, key, "worker-3");
  writer.record(2, reference_[2]);
  EXPECT_EQ(writer.owner(), "worker-3");
  EXPECT_NE(slurp(journal_path_).find(" owner=worker-3 "),
            std::string::npos);

  SweepJournal reader(journal_path_, key);  // no owner: still loads
  const auto rows = reader.load();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 2u);
  EXPECT_EQ(rows[0].second.metrics.metric_values(),
            reference_[2].metrics.metric_values());
}

TEST_F(CheckpointCorruption, FailRecordRoundTrips) {
  std::remove(journal_path_.c_str());
  const JournalKey key = make_journal_key(points_, trace_);
  SweepRow failed;
  failed.outcome = PointOutcome::kFailed;
  failed.error_code = ErrorCode::kSimulation;
  failed.attempts = 3;
  failed.error = "injected: channel 1 wedged";
  SweepJournal writer(journal_path_, key, "worker-0");
  writer.record(1, failed);
  writer.record(0, reference_[0]);

  SweepJournal reader(journal_path_, key);
  const auto rows = reader.load();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 1u);
  EXPECT_FALSE(rows[0].second.ok());
  EXPECT_EQ(rows[0].second.outcome, PointOutcome::kFailed);
  EXPECT_EQ(rows[0].second.error_code, ErrorCode::kSimulation);
  EXPECT_EQ(rows[0].second.attempts, 3u);
  EXPECT_EQ(rows[0].second.error, "injected: channel 1 wedged");
  EXPECT_TRUE(rows[1].second.ok());
}

TEST_F(CheckpointCorruption, FailMessageWithNewlinesRoundTrips) {
  std::remove(journal_path_.c_str());
  const JournalKey key = make_journal_key(points_, trace_);
  SweepRow failed;
  failed.outcome = PointOutcome::kTimedOut;
  failed.error_code = ErrorCode::kTimeout;
  failed.attempts = 2;
  failed.error = "first line\nsecond line \\ with a backslash\n";
  SweepJournal writer(journal_path_, key);
  writer.record(4, failed);
  writer.record(0, reference_[0]);

  const auto rows = SweepJournal(journal_path_, key).load();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 4u);
  EXPECT_EQ(rows[0].second.outcome, PointOutcome::kTimedOut);
  EXPECT_EQ(rows[0].second.error, failed.error);
  EXPECT_EQ(rows[1].second.metrics.metric_values(),
            reference_[0].metrics.metric_values());
}

TEST_F(CheckpointCorruption, ScanJournalNeverThrows) {
  const JournalKey key = make_journal_key(points_, trace_);
  // Clean journal: rows, no warning.
  const JournalScan good = scan_journal(journal_path_, key);
  EXPECT_EQ(good.rows.size(), points_.size());
  EXPECT_TRUE(good.warning.empty());
  // A corrupt record: the rows before it, and a message in `warning`
  // instead of a throw.  The scan never truncates.
  const std::string clean = slurp(journal_path_);
  spill(journal_path_, clean + "bogus record\n");
  const JournalScan torn = scan_journal(journal_path_, key);
  EXPECT_EQ(torn.rows.size(), points_.size());
  EXPECT_NE(torn.warning.find("corrupt sweep journal"), std::string::npos);
  EXPECT_EQ(slurp(journal_path_), clean + "bogus record\n");
  // A checksum-valid record that does not parse: no rows, typed message
  // — the supervisor treats them as never-run work.
  spill(journal_path_, clean);
  append_framed("bogus record");
  const JournalScan bad = scan_journal(journal_path_, key);
  EXPECT_TRUE(bad.rows.empty());
  EXPECT_NE(bad.warning.find("corrupt sweep journal"), std::string::npos);
  // Foreign journal (different key): same tolerant story.
  JournalKey other = key;
  other.trace_hash ^= 0x1;
  const JournalScan foreign = scan_journal(journal_path_, other);
  EXPECT_TRUE(foreign.rows.empty());
  EXPECT_FALSE(foreign.warning.empty());
}

}  // namespace
}  // namespace gmd::dse
