#include "gmd/dse/explorer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

std::vector<cpusim::MemoryEvent> make_trace(std::uint32_t vertices = 96) {
  graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 8;
  graph::EdgeList list = graph::generate_uniform_random(params);
  graph::symmetrize(list);
  const auto g = graph::CsrGraph::from_edge_list(list);
  cpusim::VectorSink sink;
  cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
  cpusim::BfsWorkload(g, 0).run(cpu);
  return sink.events();
}

/// A deterministic stand-in scorer: a fixed function of the raw
/// features, so expected rankings can be recomputed exhaustively.
BlockScorer synthetic_scorer() {
  return [](const ml::Matrix& x, std::size_t /*first*/,
            std::span<double> out) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto row = x.row(r);
      out[r] = std::sin(row[0] * 0.001) + 0.5 * std::cos(row[1] * 0.01) +
               0.1 * row[2] - 0.001 * row[3];
    }
  };
}

std::vector<ScoredPoint> exhaustive_reference(
    const LazySpace& space, const BlockScorer& scorer, std::size_t k,
    std::span<const std::size_t> skip = {}) {
  const std::size_t width = DesignPoint::feature_names().size();
  ml::Matrix x(space.size(), width);
  for (std::size_t i = 0; i < space.size(); ++i) {
    space.decode_features(i, i + 1, x.row(i));
  }
  std::vector<double> scores(space.size());
  scorer(x, 0, scores);
  std::vector<ScoredPoint> all;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (std::binary_search(skip.begin(), skip.end(), i)) continue;
    all.push_back({i, scores[i]});
  }
  std::sort(all.begin(), all.end(), scored_before);
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(ScoredBefore, TotalOrderWithIndexTieBreak) {
  EXPECT_TRUE(scored_before({5, 2.0}, {3, 1.0}));
  EXPECT_FALSE(scored_before({3, 1.0}, {5, 2.0}));
  EXPECT_TRUE(scored_before({3, 1.0}, {5, 1.0}));   // tie: lower index
  EXPECT_FALSE(scored_before({5, 1.0}, {3, 1.0}));
  EXPECT_FALSE(scored_before({3, 1.0}, {3, 1.0}));  // irreflexive
}

TEST(StreamScoreTopk, MatchesExhaustiveRanking) {
  const LazySpace space = LazySpace::paper();
  const BlockScorer scorer = synthetic_scorer();
  const auto expected = exhaustive_reference(space, scorer, 25);
  const auto got = stream_score_topk(space, scorer, 25);
  EXPECT_EQ(got, expected);
}

TEST(StreamScoreTopk, InvariantToBlockSizeAndThreads) {
  const LazySpace space = LazySpace::paper();
  const BlockScorer scorer = synthetic_scorer();
  const auto reference = stream_score_topk(space, scorer, 10);
  for (const std::size_t block : {1ul, 7ul, 64ul, 100000ul}) {
    for (const std::size_t threads : {1ul, 2ul, 5ul}) {
      StreamStats stats;
      const auto got =
          stream_score_topk(space, scorer, 10, {}, block, threads, &stats);
      EXPECT_EQ(got, reference) << "block " << block << " threads " << threads;
      EXPECT_EQ(stats.scored, space.size());
      EXPECT_EQ(stats.blocks, (space.size() + block - 1) / block);
    }
  }
}

TEST(StreamScoreTopk, ConstantScoresTieBreakToLowestIndices) {
  const LazySpace space = LazySpace::reduced();
  const BlockScorer constant = [](const ml::Matrix& x, std::size_t,
                                  std::span<double> out) {
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = 7.0;
  };
  const std::vector<std::size_t> skip = {0, 2, 3};
  const auto got = stream_score_topk(space, constant, 4, skip, 16, 3);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].index, 1u);
  EXPECT_EQ(got[1].index, 4u);
  EXPECT_EQ(got[2].index, 5u);
  EXPECT_EQ(got[3].index, 6u);
}

TEST(StreamScoreTopk, SkipListAndShortSpaces) {
  const LazySpace space = LazySpace::reduced();
  const BlockScorer scorer = synthetic_scorer();
  std::vector<std::size_t> skip;
  for (std::size_t i = 0; i < space.size(); i += 2) skip.push_back(i);
  const auto expected = exhaustive_reference(space, scorer, 200, skip);
  const auto got = stream_score_topk(space, scorer, 200, skip, 13, 2);
  EXPECT_EQ(got, expected);  // k > candidates: returns all, sorted
  EXPECT_EQ(got.size(), space.size() - skip.size());
  EXPECT_TRUE(stream_score_topk(space, scorer, 0).empty());
}

class ExplorerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new std::vector<cpusim::MemoryEvent>(make_trace());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static ExplorerOptions small_options() {
    ExplorerOptions options;
    options.initial_samples = 8;
    options.batch_size = 4;
    options.max_rounds = 3;
    options.simulation_budget = 20;
    options.top_k = 5;
    return options;
  }

  static std::vector<cpusim::MemoryEvent>* trace_;
};

std::vector<cpusim::MemoryEvent>* ExplorerTest::trace_ = nullptr;

void expect_same_result(const ExplorerResult& a, const ExplorerResult& b) {
  EXPECT_EQ(a.space_size, b.space_size);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].acquired, b.rounds[r].acquired) << "round " << r;
    EXPECT_EQ(a.rounds[r].best_value, b.rounds[r].best_value) << "round " << r;
  }
  EXPECT_EQ(a.top, b.top);
  ASSERT_EQ(a.labeled.size(), b.labeled.size());
  for (std::size_t i = 0; i < a.labeled.size(); ++i) {
    EXPECT_EQ(a.labeled[i].first, b.labeled[i].first);
  }
  ASSERT_EQ(a.fronts.size(), b.fronts.size());
  for (std::size_t f = 0; f < a.fronts.size(); ++f) {
    EXPECT_EQ(a.fronts[f].entries, b.fronts[f].entries);
  }
}

TEST_F(ExplorerTest, RespectsBudgetAndRoundStructure) {
  const LazySpace space = LazySpace::reduced();
  const ExplorerResult result =
      run_explorer(space, *trace_, small_options());
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().acquired.size(), 8u);
  EXPECT_LE(result.labeled.size(), 20u);
  EXPECT_EQ(result.top.size(), 5u);
  std::set<std::size_t> seen;
  for (const ExplorerRound& round : result.rounds) {
    for (const std::size_t index : round.acquired) {
      EXPECT_TRUE(seen.insert(index).second)
          << "index " << index << " acquired twice";
    }
  }
  EXPECT_EQ(seen.size(), result.labeled.size());
  EXPECT_EQ(result.fronts.size(), 2u);
}

TEST_F(ExplorerTest, DeterministicAcrossThreadsAndBlocks) {
  const LazySpace space = LazySpace::reduced();
  for (const Acquisition acquisition :
       {Acquisition::kExpectedImprovement, Acquisition::kRandom}) {
    SCOPED_TRACE(to_string(acquisition));
    ExplorerOptions base = small_options();
    base.acquisition = acquisition;
    const ExplorerResult reference = run_explorer(space, *trace_, base);

    ExplorerOptions threaded = base;
    threaded.num_threads = 4;
    threaded.block_size = 8;
    expect_same_result(run_explorer(space, *trace_, threaded), reference);

    ExplorerOptions tiny_blocks = base;
    tiny_blocks.block_size = 1;
    expect_same_result(run_explorer(space, *trace_, tiny_blocks), reference);
  }
}

TEST_F(ExplorerTest, AcquisitionModesAndModelsRun) {
  const LazySpace space = LazySpace::reduced();
  for (const Acquisition acquisition :
       {Acquisition::kMaxVariance, Acquisition::kExpectedImprovement,
        Acquisition::kBestPredicted, Acquisition::kRandom}) {
    for (const char* model : {"gp", "rf"}) {
      ExplorerOptions options = small_options();
      options.acquisition = acquisition;
      options.model = model;
      const ExplorerResult result = run_explorer(space, *trace_, options);
      EXPECT_EQ(result.top.size(), 5u)
          << model << "/" << to_string(acquisition);
    }
  }
}

TEST_F(ExplorerTest, KillAndResumeReachesIdenticalResult) {
  const LazySpace space = LazySpace::reduced();
  const std::string run_dir =
      (std::filesystem::temp_directory_path() /
       ("gmd_explorer_resume_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(run_dir);

  ExplorerOptions options = small_options();
  const ExplorerResult uninterrupted = run_explorer(space, *trace_, options);

  // Round hooks fire after each round is simulated and journaled, so
  // throwing from one is the in-process stand-in for SIGKILL at the
  // worst moment: a freshly journaled acquisition with nothing resumed.
  struct Killed {};
  for (std::size_t kill_after = 1; kill_after <= 3; ++kill_after) {
    std::filesystem::remove_all(run_dir);
    ExplorerOptions killed = options;
    killed.run_dir = run_dir;
    killed.round_hook = [kill_after](std::size_t completed) {
      if (completed >= kill_after) throw Killed{};
    };
    EXPECT_THROW(run_explorer(space, *trace_, killed), Killed);

    ExplorerOptions resumed = options;
    resumed.run_dir = run_dir;
    resumed.resume = true;
    const ExplorerResult result = run_explorer(space, *trace_, resumed);
    expect_same_result(result, uninterrupted);
  }
  std::filesystem::remove_all(run_dir);
}

TEST_F(ExplorerTest, EveryRoundsCutResumesToIdenticalResult) {
  // Crash semantics of rounds.txt pinned at every byte.  A round is
  // journaled before its simulations run, so when round k's record is
  // torn no row of round k or later has reached the sweep journal.  The
  // resume must replay exactly rounds 0..k-1 off the journals, acquire
  // the rest afresh, and end bit-identical to the uninterrupted run.
  const LazySpace space = LazySpace::reduced();
  const std::string run_dir =
      (std::filesystem::temp_directory_path() /
       ("gmd_explorer_cut_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(run_dir);
  // Smaller than small_options(): every cut costs one resumed run.
  ExplorerOptions options = small_options();
  options.initial_samples = 4;
  options.batch_size = 2;
  options.max_rounds = 2;
  options.simulation_budget = 8;
  options.top_k = 3;
  options.run_dir = run_dir;
  const ExplorerResult reference = run_explorer(space, *trace_, options);
  ASSERT_EQ(reference.rounds.size(), 3u);

  const std::string rounds_path = run_dir + "/rounds.txt";
  const std::string journal_path = run_dir + "/sweep.journal";
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string full = slurp(rounds_path);
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') ends.push_back(i + 1);
  }
  ASSERT_EQ(ends.size(), reference.rounds.size() + 1);

  // The sweep journal as it stood when round k's record was torn: the
  // rows of rounds 0..k-1 only (no file at all for k = 0).
  const JournalKey key = sweep_identity(
      {trace_checksum(*trace_), space.checksum(), space.size()},
      options.sweep);
  const auto all_rows = SweepJournal(journal_path, key).load();
  std::vector<std::string> journal_at(reference.rounds.size() + 1);
  std::set<std::size_t> acquired;
  for (std::size_t k = 1; k < journal_at.size(); ++k) {
    for (const std::size_t index : reference.rounds[k - 1].acquired) {
      acquired.insert(index);
    }
    std::filesystem::remove(journal_path);
    SweepJournal journal(journal_path, key);
    for (const auto& [index, row] : all_rows) {
      if (acquired.contains(index)) journal.record(index, row);
    }
    journal_at[k] = slurp(journal_path);
  }

  options.resume = true;
  log::set_sink([](log::Level, std::string_view) {});
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    std::size_t complete = 0;
    while (complete + 1 < ends.size() && ends[complete + 1] <= cut) {
      ++complete;
    }
    std::ofstream(rounds_path, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    std::filesystem::remove(journal_path);
    if (complete > 0) {
      std::ofstream(journal_path, std::ios::binary) << journal_at[complete];
    }

    const ExplorerResult result = run_explorer(space, *trace_, options);
    expect_same_result(result, reference);
    for (std::size_t r = 0; r < result.rounds.size(); ++r) {
      EXPECT_EQ(result.rounds[r].newly_simulated == 0, r < complete)
          << "round " << r;
    }
    EXPECT_EQ(slurp(rounds_path), full);
  }
  log::set_sink(nullptr);
  std::filesystem::remove_all(run_dir);
}

TEST_F(ExplorerTest, ResumeRefusesForeignJournal) {
  const std::string run_dir =
      (std::filesystem::temp_directory_path() /
       ("gmd_explorer_identity_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(run_dir);
  ExplorerOptions options = small_options();
  options.run_dir = run_dir;
  run_explorer(LazySpace::reduced(), *trace_, options);

  // Same run dir, different space: the rounds journal identity check
  // must refuse rather than mix trajectories.
  options.resume = true;
  EXPECT_THROW(run_explorer(LazySpace::paper(), *trace_, options), Error);

  // Different options hash likewise.
  ExplorerOptions changed = options;
  changed.seed = 99;
  EXPECT_THROW(run_explorer(LazySpace::reduced(), *trace_, changed), Error);
  std::filesystem::remove_all(run_dir);
}

TEST_F(ExplorerTest, SurrogateAgreesWithExhaustive416Sweep) {
  const LazySpace space = LazySpace::paper();
  ExplorerOptions options;
  options.initial_samples = 32;
  options.batch_size = 16;
  options.max_rounds = 8;
  options.simulation_budget = 128;  // < 1/3 of the exhaustive sweep
  options.top_k = 10;
  const ExplorerResult result = run_explorer(space, *trace_, options);
  EXPECT_LE(result.labeled.size(), 128u);

  const std::vector<SweepRow> rows =
      run_sweep(space.materialize(), *trace_, {});
  const std::vector<std::size_t> truth =
      exhaustive_topk(rows, options.metric, 10);
  std::vector<std::size_t> picks;
  for (const ScoredPoint& p : result.top) picks.push_back(p.index);
  EXPECT_GE(topk_agreement(picks, truth), 0.9)
      << "explorer found " << topk_agreement(picks, truth) * 10
      << " of the true top-10 with " << result.labeled.size()
      << " simulations";
}

TEST_F(ExplorerTest, GpExpectedImprovementTrajectoryIsPinned) {
  // A GP/EI run on the paper grid, pinned to the indices and score bits
  // the per-row GP implementation produced.  The EI rounds rank by
  // mean and variance; the exploit round and the final top-k by mean.
  ExplorerOptions options = small_options();
  options.model = "gp";
  options.acquisition = Acquisition::kExpectedImprovement;
  const ExplorerResult result =
      run_explorer(LazySpace::paper(), *trace_, options);

  const std::vector<std::vector<std::size_t>> rounds = {
      {292, 216, 238, 162, 290, 59, 29, 158},
      {279, 281, 277, 233},
      {247, 221, 351, 325},
      {273, 255, 253, 257}};
  ASSERT_EQ(result.rounds.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].acquired, rounds[r]) << "round " << r;
  }
  const std::vector<std::size_t> labeled = {
      29,  59,  158, 162, 216, 221, 233, 238, 247, 253,
      255, 257, 273, 277, 279, 281, 290, 292, 325, 351};
  std::vector<std::size_t> got_labeled;
  for (const auto& [index, row] : result.labeled) got_labeled.push_back(index);
  EXPECT_EQ(got_labeled, labeled);

  // {index, score bits}: 299, 195, 169 and 403 are GP predictions, 273
  // was simulated.
  const std::vector<std::pair<std::size_t, std::uint64_t>> top = {
      {299, 0x4054d6066c1f4675ULL},   // 83.344141989271364
      {273, 0x405676865cc47b25ULL},   // 89.851950828433999
      {195, 0x405d4ef7d61927aeULL},   // 117.2338767285971
      {169, 0x405d61efe6769055ULL},   // 117.53026734903808
      {403, 0x405d9f0f97f4e21aULL}};  // 118.48532675661446
  ASSERT_EQ(result.top.size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(result.top[i].index, top[i].first) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.top[i].score), top[i].second)
        << "rank " << i << ": " << result.top[i].score;
  }
}

TEST(ExplorerHelpers, ExhaustiveTopkAndAgreement) {
  EXPECT_EQ(topk_agreement(std::vector<std::size_t>{}, {}), 1.0);
  const std::vector<std::size_t> truth = {1, 2, 3, 4};
  const std::vector<std::size_t> picks = {4, 9, 1, 7};
  EXPECT_DOUBLE_EQ(topk_agreement(picks, truth), 0.5);
}

TEST(ExplorerOptionsValidation, RejectsBadInputs) {
  const LazySpace space = LazySpace::reduced();
  const std::vector<cpusim::MemoryEvent> trace = make_trace(64);
  ExplorerOptions options;
  options.initial_samples = 1;
  EXPECT_THROW(run_explorer(space, trace, options), Error);
  options = {};
  options.simulation_budget = 4;  // below initial_samples
  EXPECT_THROW(run_explorer(space, trace, options), Error);
  options = {};
  options.model = "svm";
  EXPECT_THROW(run_explorer(space, trace, options), Error);
  EXPECT_THROW(parse_acquisition("nope"), Error);
  EXPECT_EQ(parse_acquisition("ei"), Acquisition::kExpectedImprovement);
  EXPECT_EQ(to_string(Acquisition::kMaxVariance), "variance");
  EXPECT_EQ(parse_acquisition("random"), Acquisition::kRandom);
  EXPECT_EQ(to_string(Acquisition::kRandom), "random");
}

}  // namespace
}  // namespace gmd::dse
