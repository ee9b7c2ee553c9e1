/// \file workloads.cpp
/// The benchmark's workloads.  Each builds its input the paper's way
/// (graph -> CPU-model BFS -> gem5 text -> parallel converter -> GMDT
/// store) and then answers one co-design question end to end through the
/// library's public API.  In traced mode each also runs drill-downs: the
/// same layers called one public function at a time, so the time inside
/// a whole call can be attributed to memsim, dse and ml.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_e2e.hpp"
#include "gmd/common/atomic_file.hpp"
#include "gmd/common/csv.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/checkpoint.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/dataset_builder.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/graph/csr.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/memsim/hybrid.hpp"
#include "gmd/memsim/memory_system.hpp"
#include "gmd/ml/gp.hpp"
#include "gmd/ml/serialize.hpp"
#include "gmd/pipeline/pipeline.hpp"
#include "gmd/service/service.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"

namespace gmd::bench_e2e {

namespace fs = std::filesystem;
using dse::DesignPoint;
using dse::SweepRow;
using service::Json;

namespace {

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  const Scope scope(tracer, name);
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

void mix_text(Fnv1a& h, const std::string& text) {
  h.mix(text.size());
  h.mix_bytes(text.data(), text.size());
}

void mix_metrics(Fnv1a& h, const memsim::MemoryMetrics& m) {
  for (const double v : m.metric_values()) h.mix_double(v);
  h.mix(m.row_hits);
  h.mix(m.row_misses);
  h.mix(m.total_reads);
  h.mix(m.total_writes);
}

bool same_metrics(const memsim::MemoryMetrics& a,
                  const memsim::MemoryMetrics& b) {
  Fnv1a ha;
  Fnv1a hb;
  mix_metrics(ha, a);
  mix_metrics(hb, b);
  return ha.state == hb.state;
}

std::size_t failed_rows(const std::vector<SweepRow>& rows) {
  return static_cast<std::size_t>(std::count_if(
      rows.begin(), rows.end(), [](const SweepRow& r) { return !r.ok(); }));
}

std::string csv_text(const std::vector<SweepRow>& rows) {
  std::ostringstream os;
  dse::sweep_to_table(rows).write(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Up to `count` points, a third of each memory kind, each third spread
/// evenly over that kind's points.
std::vector<DesignPoint> kind_sample(const std::vector<DesignPoint>& points,
                                     std::size_t count) {
  std::vector<DesignPoint> sample;
  for (const dse::MemoryKind kind :
       {dse::MemoryKind::kDram, dse::MemoryKind::kNvm,
        dse::MemoryKind::kHybrid}) {
    std::vector<DesignPoint> of_kind;
    std::copy_if(points.begin(), points.end(), std::back_inserter(of_kind),
                 [kind](const DesignPoint& p) { return p.kind == kind; });
    const std::size_t want = std::min(of_kind.size(), count / 3);
    for (std::size_t i = 0; i < want; ++i) {
      sample.push_back(of_kind[i * of_kind.size() / want]);
    }
  }
  return sample;
}

/// Nearest-rank percentile of `values` (p in [0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Adds "<prefix>_p50_ms", the highest of p90/p99 with at least ten
/// samples beyond it, and "<prefix>_count".
void add_latencies(Metrics& metrics, const std::string& prefix,
                   const std::vector<double>& ms) {
  add_sample(metrics, prefix + "_count", "count",
             static_cast<double>(ms.size()));
  if (ms.size() < 20) return;
  add_sample(metrics, prefix + "_p50_ms", "ms", percentile(ms, 50));
  if (ms.size() >= 1000) {
    add_sample(metrics, prefix + "_p99_ms", "ms", percentile(ms, 99));
  } else if (ms.size() >= 100) {
    add_sample(metrics, prefix + "_p90_ms", "ms", percentile(ms, 90));
  }
}

// --- input ---------------------------------------------------------------

enum class GraphModel { kUniform, kRmat };

/// A workload's simulator input: the GMDT store the converter wrote.
struct Input {
  std::string store_path;
  std::unique_ptr<tracestore::TraceStoreReader> store;
  std::uint64_t events = 0;
};

/// GTGraph-model graph (uniform: `size` vertices; R-MAT: 2^`size`),
/// symmetrized and deduplicated; BFS from a seeded source on the CPU
/// model; gem5 text; parallel conversion to GMDT.  For the uniform model
/// the events are exactly dse::generate_workload_trace's, and the steps
/// are the pipeline's cpusim and pack stages.
Input build_input(const Env& env, GraphModel model, unsigned size) {
  Tracer& tracer = *env.tracer;
  graph::CsrGraph graph;
  const double graph_s = timed(tracer, "graph.build", [&] {
    graph::EdgeList list;
    if (model == GraphModel::kUniform) {
      graph::UniformRandomParams params;
      params.num_vertices = size;
      params.edge_factor = 16;
      params.seed = env.seed;
      list = graph::generate_uniform_random(params);
    } else {
      graph::RmatParams params;
      params.scale = size;
      params.edge_factor = 16;
      params.seed = env.seed;
      list = graph::generate_rmat(params);
    }
    graph::symmetrize(list);
    graph::remove_self_loops_and_duplicates(list);
    graph = graph::CsrGraph::from_edge_list(list);
  });

  std::vector<cpusim::MemoryEvent> events;
  const double cpusim_s = timed(tracer, "cpusim.run", [&] {
    // The source draw of dse::generate_workload_trace.  R-MAT leaves
    // many vertices isolated, so it redraws until the source has edges,
    // as Graph500 does.
    Rng rng(env.seed ^ 0xB5297A4D3F84C2E1ULL);
    auto source =
        static_cast<graph::VertexId>(rng.next_below(graph.num_vertices()));
    while (model == GraphModel::kRmat && graph.degree(source) == 0) {
      source =
          static_cast<graph::VertexId>(rng.next_below(graph.num_vertices()));
    }
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::make_workload("bfs", graph, source)->run(cpu);
    events = sink.take();
  });

  Input input;
  const std::string gem5_path = env.dir + "/trace.gem5.txt";
  input.store_path = env.dir + "/trace.gmdt";
  const double write_s = timed(tracer, "trace.gem5_write", [&] {
    std::ofstream out(gem5_path);
    trace::Gem5TraceWriter writer(out);
    for (const cpusim::MemoryEvent& event : events) writer.on_event(event);
    out.flush();
    check(out.good(), "gem5 trace write to " + gem5_path + " failed");
  });
  trace::ConvertStats stats;
  const double convert_s = timed(tracer, "trace.convert", [&] {
    trace::ConvertOptions options;
    options.num_threads = env.threads;
    stats = trace::convert_gem5_to_gmdt(gem5_path, input.store_path, options);
  });
  const double open_s = timed(tracer, "tracestore.open", [&] {
    input.store =
        std::make_unique<tracestore::TraceStoreReader>(input.store_path);
  });
  input.events = input.store->num_events();
  check(stats.events_out == events.size() && input.events == events.size(),
        "converter lost events: cpusim " + std::to_string(events.size()) +
            ", store " + std::to_string(input.events));
  fs::remove(gem5_path);

  if (env.layers != nullptr) {
    Metrics& layers = *env.layers;
    add_sample(layers, "graph.build_s", "s", graph_s);
    add_sample(layers, "graph.edges", "count",
               static_cast<double>(graph.num_edges()));
    add_sample(layers, "cpusim.run_s", "s", cpusim_s);
    add_sample(layers, "cpusim.events", "count",
               static_cast<double>(events.size()));
    add_sample(layers, "cpusim.events_per_s", "1/s",
               static_cast<double>(events.size()) / cpusim_s);
    add_sample(layers, "trace.gem5_write_s", "s", write_s);
    add_sample(layers, "trace.convert_s", "s", convert_s);
    add_sample(layers, "trace.convert_lines_per_s", "1/s",
               static_cast<double>(stats.lines_in) / convert_s);
    add_sample(layers, "tracestore.open_s", "s", open_s);
    add_sample(layers, "tracestore.store_bytes", "bytes",
               static_cast<double>(input.store->file_bytes()));
  }
  return input;
}

// --- drill-downs -----------------------------------------------------------

/// memsim and dse on a sample of the workload's points: each point
/// predecoded and replayed serially (memsim), then the same points as
/// one run_sweep on env.threads threads (dse).  The serial metrics must
/// equal the sweep rows bit for bit.
void memsim_dse_drill(const Env& env, const tracestore::TraceStoreReader& store,
                      const std::vector<DesignPoint>& sample, Metrics& layers) {
  Tracer& tracer = *env.tracer;
  std::vector<cpusim::MemoryEvent> events;
  add_sample(layers, "tracestore.read_all_s", "s",
             timed(tracer, "tracestore.read_all",
                   [&] { events = store.read_all(); }));

  std::map<std::string, memsim::PredecodedTrace> single;
  std::map<std::string,
           std::pair<memsim::PredecodedTrace, memsim::PredecodedTrace>>
      hybrid;
  double predecode_s = 0.0;
  double replay_s = 0.0;
  double hybrid_s = 0.0;
  double requests = 0.0;
  double row_hits = 0.0;
  double row_accesses = 0.0;
  std::vector<memsim::MemoryMetrics> serial(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const DesignPoint& point = sample[i];
    if (point.kind == dse::MemoryKind::kHybrid) {
      const memsim::HybridConfig config = point.hybrid_config();
      const std::string key = memsim::hybrid_trace_key(config);
      if (!hybrid.contains(key)) {
        predecode_s += timed(tracer, "memsim.predecode", [&] {
          hybrid.emplace(key, memsim::predecode_hybrid(config, events));
        });
      }
      const auto& [dram, nvm] = hybrid.at(key);
      hybrid_s += timed(tracer, "memsim.hybrid", [&] {
        serial[i] = memsim::HybridMemory::simulate(config, dram, nvm);
      });
    } else {
      const memsim::MemoryConfig config = point.single_config();
      const std::string key = memsim::PredecodedTrace::key(config);
      if (!single.contains(key)) {
        predecode_s += timed(tracer, "memsim.predecode", [&] {
          single.emplace(key, memsim::PredecodedTrace::build(config, events));
        });
      }
      replay_s += timed(tracer, "memsim.replay", [&] {
        serial[i] = memsim::MemorySystem::simulate(config, single.at(key));
      });
    }
    requests += static_cast<double>(serial[i].total_reads +
                                    serial[i].total_writes);
    row_hits += static_cast<double>(serial[i].row_hits);
    row_accesses +=
        static_cast<double>(serial[i].row_hits + serial[i].row_misses);
  }
  add_sample(layers, "memsim.predecode_s", "s", predecode_s);
  add_sample(layers, "memsim.predecode_groups", "count",
             static_cast<double>(single.size() + hybrid.size()));
  add_sample(layers, "memsim.replay_s", "s", replay_s);
  add_sample(layers, "memsim.hybrid_s", "s", hybrid_s);
  add_sample(layers, "memsim.requests", "count", requests);
  add_sample(layers, "memsim.requests_per_s", "1/s",
             requests / (replay_s + hybrid_s));
  add_sample(layers, "memsim.row_hit_rate", "ratio", row_hits / row_accesses);

  std::vector<SweepRow> rows;
  dse::SweepOptions options;
  options.num_threads = env.threads;
  const double sweep_s = timed(tracer, "dse.run_sweep", [&] {
    rows = dse::run_sweep(sample, store, options);
  });
  add_sample(layers, "dse.sweep_s", "s", sweep_s);
  add_sample(layers, "dse.sweep_parallel_eff", "ratio",
             (predecode_s + replay_s + hybrid_s) /
                 (sweep_s * static_cast<double>(env.threads)));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    check(rows[i].ok() && same_metrics(rows[i].metrics, serial[i]),
          "memsim drill-down disagrees with run_sweep at " + sample[i].id());
  }
}

/// ml: fits the workload's surrogate family on `rows` and measures its
/// batch prediction rate over `candidates` (repeated for >= 0.2 s).
void ml_drill(const Env& env, const std::vector<SweepRow>& rows,
              const std::string& family,
              const std::vector<DesignPoint>& candidates, Metrics& layers) {
  Tracer& tracer = *env.tracer;
  dse::SurrogateSuite::DeployedModel model;
  add_sample(layers, "ml.fit_s", "s", timed(tracer, "ml.fit", [&] {
               model = dse::SurrogateSuite::deploy(rows, "total_latency_cycles",
                                                   family, 1, env.threads);
             }));
  double predicted = 0.0;
  const double predict_s = timed(tracer, "ml.predict", [&] {
    const auto start = Clock::now();
    do {
      check(model.predict(candidates).size() == candidates.size(),
            "surrogate prediction count mismatch");
      predicted += static_cast<double>(candidates.size());
    } while (seconds_since(start) < 0.2);
  });
  add_sample(layers, "ml.predict_rows_per_s", "1/s", predicted / predict_s);
}

/// The paper's recommendations (section IV-B): the best simulated point
/// per metric, then the best point an SVR surrogate predicts over
/// `points`.
std::string recommend(Tracer& tracer, const std::vector<SweepRow>& rows,
                      const std::vector<DesignPoint>& points) {
  std::string text;
  timed(tracer, "dse.recommend_from_sweep", [&] {
    text = dse::format_recommendations(dse::recommend_from_sweep(rows));
  });
  timed(tracer, "ml.recommend_from_surrogate", [&] {
    text += dse::format_recommendations(
        dse::recommend_from_surrogate(rows, points));
  });
  return text;
}

// --- codesign --------------------------------------------------------------

/// The pipeline's compute path in memory: sweep the design grid, train
/// and evaluate the four model families (Table I), deploy the best model
/// per metric, recommend from the sweep and from a surrogate.
class Codesign final : public Workload {
 public:
  explicit Codesign(const Env& env)
      : env_(env),
        points_(env.quick ? dse::reduced_design_space()
                          : dse::paper_design_space()) {}

  void setup() override {
    input_ = build_input(env_, GraphModel::kUniform, env_.quick ? 256 : 2048);
  }

  PassOutput pass() override {
    Tracer& tracer = *env_.tracer;
    dse::SweepOptions sweep;
    sweep.num_threads = env_.threads;
    timed(tracer, "dse.run_sweep",
          [&] { rows_ = dse::run_sweep(points_, *input_.store, sweep); });
    std::string csv;
    timed(tracer, "dse.sweep_to_table", [&] { csv = csv_text(rows_); });
    std::string table1;
    std::string models;
    timed(tracer, "ml.surrogate_train", [&] {
      dse::SurrogateOptions options;
      options.num_threads = env_.threads;
      const auto suite = dse::SurrogateSuite::train(rows_, options);
      table1 = suite.format_table1();
      for (const std::string& metric : dse::target_metric_names()) {
        std::ostringstream os;
        dse::SurrogateSuite::deploy(rows_, metric,
                                    suite.best_model(metric).model, 1,
                                    env_.threads)
            .save(os);
        models += os.str();
      }
    });
    const std::string recs = recommend(tracer, rows_, points_);

    Fnv1a h;
    mix_text(h, csv);
    mix_text(h, table1);
    mix_text(h, models);
    mix_text(h, recs);
    PassOutput out;
    out.digest = h.state;
    out.attempted = rows_.size();
    out.failed = failed_rows(rows_);
    out.simulated_events =
        static_cast<double>(rows_.size()) * static_cast<double>(input_.events);
    return out;
  }

  void drill(Metrics& layers) override {
    memsim_dse_drill(env_, *input_.store, kind_sample(points_, 30), layers);
    ml_drill(env_, rows_, "svr", points_, layers);
  }

  std::uint64_t pinned_digest() const override {
    return env_.quick ? 0xb0ef1f47543b4069ULL : 0x7ab5c8af7d7c68e0ULL;
  }

 private:
  Env env_;
  std::vector<DesignPoint> points_;
  Input input_;
  std::vector<SweepRow> rows_;
};

// --- sweep-rmat ------------------------------------------------------------

/// Label generation on a skewed-degree graph: a store-fed sweep of the
/// design grid over an R-MAT BFS trace, then recommendations from the
/// rows and from an SVR surrogate.  memsim does nearly all the work and
/// nothing is journaled — the mirror image of the pipeline.
class SweepRmat final : public Workload {
 public:
  explicit SweepRmat(const Env& env)
      : env_(env),
        points_(env.quick ? dse::reduced_design_space()
                          : dse::paper_design_space()) {}

  void setup() override {
    input_ = build_input(env_, GraphModel::kRmat, env_.quick ? 8 : 12);
  }

  PassOutput pass() override {
    Tracer& tracer = *env_.tracer;
    dse::SweepOptions sweep;
    sweep.num_threads = env_.threads;
    timed(tracer, "dse.run_sweep",
          [&] { rows_ = dse::run_sweep(points_, *input_.store, sweep); });
    const std::string recs = recommend(tracer, rows_, points_);

    Fnv1a h;
    for (const SweepRow& row : rows_) mix_metrics(h, row.metrics);
    mix_text(h, recs);
    PassOutput out;
    out.digest = h.state;
    out.attempted = rows_.size();
    out.failed = failed_rows(rows_);
    out.simulated_events =
        static_cast<double>(rows_.size()) * static_cast<double>(input_.events);
    return out;
  }

  void drill(Metrics& layers) override {
    memsim_dse_drill(env_, *input_.store, kind_sample(points_, 30), layers);
    ml_drill(env_, rows_, "svr", points_, layers);
  }

  std::uint64_t pinned_digest() const override {
    return env_.quick ? 0x9f721a40345eaa39ULL : 0x93dcfaa51376bdd5ULL;
  }

 private:
  Env env_;
  std::vector<DesignPoint> points_;
  Input input_;
  std::vector<SweepRow> rows_;
};

// --- explore ---------------------------------------------------------------

/// The adaptive explorer on the million-point lazy space: GP surrogate,
/// expected-improvement acquisition, a 64-simulation budget.  Scoring the
/// space with the GP does most of the work; memsim does little.
class Explore final : public Workload {
 public:
  explicit Explore(const Env& env)
      : env_(env),
        space_(env.quick ? dse::LazySpace::paper()
                         : dse::LazySpace(dse::LazySpace::million_axes())) {}

  void setup() override {
    input_ = build_input(env_, GraphModel::kUniform, env_.quick ? 256 : 1024);
    timed(*env_.tracer, "tracestore.read_all",
          [&] { events_ = input_.store->read_all(); });
  }

  PassOutput pass() override {
    dse::ExplorerOptions options;
    options.initial_samples = env_.quick ? 16 : 32;
    options.batch_size = env_.quick ? 8 : 16;
    options.simulation_budget = env_.quick ? 32 : 64;
    options.num_threads = env_.threads;
    options.sweep.num_threads = env_.threads;
    std::vector<double> round_ends;
    const auto start = Clock::now();
    options.round_hook = [&](std::size_t) {
      round_ends.push_back(seconds_since(start));
    };
    timed(*env_.tracer, "dse.run_explorer",
          [&] { result_ = dse::run_explorer(space_, events_, options); });
    for (std::size_t r = 1; r < round_ends.size(); ++r) {
      round_s_.push_back(round_ends[r] - round_ends[r - 1]);
    }

    Fnv1a h;
    std::size_t failed = 0;
    for (const auto& [index, row] : result_.labeled) {
      h.mix(index);
      mix_metrics(h, row.metrics);
      failed += row.ok() ? 0 : 1;
    }
    for (const dse::ScoredPoint& p : result_.top) {
      h.mix(p.index);
      h.mix_double(p.score);
    }
    check(result_.labeled.size() == options.simulation_budget &&
              result_.top.size() == options.top_k,
          "explorer returned " + std::to_string(result_.labeled.size()) +
              " labeled points and a top-" +
              std::to_string(result_.top.size()));
    PassOutput out;
    out.digest = h.state;
    out.attempted = result_.labeled.size();
    out.failed = failed;
    out.simulated_events = static_cast<double>(result_.labeled.size()) *
                           static_cast<double>(input_.events);
    return out;
  }

  void drill(Metrics& layers) override {
    std::vector<SweepRow> rows;
    std::vector<DesignPoint> labeled;
    for (const auto& [index, row] : result_.labeled) {
      rows.push_back(row);
      labeled.push_back(row.point);
    }
    memsim_dse_drill(env_, *input_.store, kind_sample(labeled, 30), layers);

    // The explorer's scoring hot path: GP predictions over every row of
    // the space, streamed through the top-K selector.  Means only, as in
    // two of its three scoring passes (exploit round and final ranking).
    Tracer& tracer = *env_.tracer;
    dse::SurrogateSuite::DeployedModel model;
    add_sample(layers, "ml.fit_s", "s", timed(tracer, "ml.fit", [&] {
                 model = dse::SurrogateSuite::deploy(
                     rows, "total_latency_cycles", "gp", 1, env_.threads);
               }));
    const auto* gp = dynamic_cast<const ml::GaussianProcess*>(model.model.get());
    check(gp != nullptr, "deployed gp is not a GaussianProcess");
    const dse::BlockScorer scorer = [&](const ml::Matrix& x, std::size_t,
                                        std::span<double> out) {
      const std::vector<double> means =
          gp->predict(model.x_scaler.transform(x));
      std::copy(means.begin(), means.end(), out.begin());
    };
    dse::StreamStats stats;
    const double score_s = timed(tracer, "ml.predict", [&] {
      dse::stream_score_topk(space_, scorer, 16, {}, 8192, env_.threads,
                             &stats);
    });
    add_sample(layers, "ml.predict_rows_per_s", "1/s",
               static_cast<double>(stats.scored) / score_s);
  }

  void finish(Metrics& metrics) override {
    add_sample(metrics, "explore.rounds", "count",
               static_cast<double>(result_.rounds.size()));
    add_sample(metrics, "explore.rows_scored", "count",
               static_cast<double>(result_.stream.scored));
    add_sample(metrics, "explore.best_total_latency_cycles", "cycles",
               result_.top.front().score);
    add_sample(metrics, "explore.round_s_median", "s", median(round_s_));
    add_sample(metrics, "explore.round_s_max", "s",
               *std::max_element(round_s_.begin(), round_s_.end()));
  }

  std::uint64_t pinned_digest() const override {
    return env_.quick ? 0x1cc3cdb6268a1b79ULL : 0xcd89b72efeaa2617ULL;
  }

 private:
  Env env_;
  dse::LazySpace space_;
  Input input_;
  std::vector<cpusim::MemoryEvent> events_;
  dse::ExplorerResult result_;
  std::vector<double> round_s_;  ///< Acquisition rounds, every pass.
};

// --- serve -----------------------------------------------------------------

/// The resident query service under a closed loop: one client keeps four
/// requests outstanding, drawn from an endless seeded stream — 50%
/// simulate of a point drawn Zipf(1) over a fixed popularity order of
/// the paper grid, 40% predict of 64 points, 10% recommend.  The
/// 128-entry result cache is smaller than the 416-point working set, so
/// hits and misses (memsim work) both occur.  Fresh draws every pass keep
/// the hit rate at the distribution's stationary value; a replayed script
/// would instead sit at an LRU cliff that moves with the seed.  The
/// popularity order does not follow the seed: which configurations are
/// hot sets the cost of the misses, and moved the wall time by 6%
/// between seeds.
class Serve final : public Workload {
 public:
  explicit Serve(const Env& env)
      : env_(env), points_(dse::paper_design_space()) {}

  ~Serve() override {
    if (service_) service_->drain();
  }
  Serve(const Serve&) = delete;
  Serve& operator=(const Serve&) = delete;

  void setup() override {
    Tracer& tracer = *env_.tracer;
    service_.reset();
    input_ = build_input(env_, GraphModel::kUniform, env_.quick ? 256 : 2048);
    service::ServiceOptions options;
    options.num_threads = std::max<std::size_t>(1, env_.threads - 1);
    options.cache_capacity = 128;
    service_ = std::make_unique<service::Service>(options);
    timed(tracer, "service.register_trace", [&] {
      service_->traces().register_store("bfs", input_.store_path);
    });
    dse::SweepOptions sweep;
    sweep.num_threads = env_.threads;
    timed(tracer, "dse.run_sweep", [&] {
      model_rows_ = dse::run_sweep(dse::reduced_design_space(), *input_.store,
                                   sweep);
    });
    timed(tracer, "ml.deploy", [&] {
      service_->models().register_model(
          "bw", dse::SurrogateSuite::deploy(model_rows_, "bandwidth_mbs", "rf",
                                            1, env_.threads));
    });
    timed(tracer, "bench.make_requests", [&] { make_requests(); });
    // One pass's worth of requests brings the cache to its steady state.
    std::vector<Json> responses;
    timed(tracer, "service.warmup",
          [&] { run_requests(next_requests(), responses); });
    for (const Json& response : responses) {
      check(response.at("ok").as_bool(), "warm-up request failed");
    }
  }

  PassOutput pass() override {
    const std::vector<Request> requests = next_requests();
    std::vector<Json> responses;
    const auto start = Clock::now();
    run_requests(requests, responses);
    requests_per_s_.push_back(static_cast<double>(requests.size()) /
                              seconds_since(start));

    const Scope checking(*env_.tracer, "bench.check_responses");
    PassOutput out;
    out.same_inputs_every_pass = false;
    Fnv1a h;
    std::size_t misses = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& request = requests[i];
      const Json& response = responses[i];
      ++out.attempted;
      if (!response.at("ok").as_bool()) {
        ++out.failed;
        continue;
      }
      h.mix(i);
      if (request.kind == Kind::kSimulate) {
        const Json& row = response.at("rows").as_array().at(0);
        const std::string metrics = row.at("metrics").dump();
        const bool cached = row.at("cached").as_bool();
        misses += cached ? 0 : 1;
        (cached ? hit_ms_ : miss_ms_).push_back(latency_ms_[i]);
        const auto [it, fresh] = answers_.emplace(request.index, metrics);
        check(fresh || it->second == metrics,
              "cached and fresh answers differ for " +
                  points_[request.index].id());
        mix_text(h, metrics);
      } else {
        interactive_ms_.push_back(latency_ms_[i]);
        mix_text(h, request.kind == Kind::kPredict
                        ? response.at("values").dump()
                        : response.at("best").dump() +
                              response.at("value").dump());
      }
    }
    out.digest = h.state;
    out.simulated_events =
        static_cast<double>(misses) * static_cast<double>(input_.events);
    return out;
  }

  void drill(Metrics& layers) override {
    memsim_dse_drill(env_, *input_.store, kind_sample(points_, 30), layers);
    ml_drill(env_, model_rows_, "rf", points_, layers);
  }

  void finish(Metrics& metrics) override {
    // Sixteen seeded points: the service's answers (cached or fresh)
    // equal a direct simulate_point on the same store.
    Rng rng(env_.seed ^ 0xC0FFEEULL);
    for (int k = 0; k < 16; ++k) {
      const std::size_t index = rng.next_below(points_.size());
      const Json response =
          Json::parse(service_->handle(simulate_lines_[index]));
      check(response.at("ok").as_bool(), "check request failed");
      const Json& served = response.at("rows").as_array().at(0).at("metrics");
      const std::vector<double> direct =
          dse::simulate_point(*input_.store, points_[index])
              .metrics.metric_values();
      const auto& names = memsim::MemoryMetrics::metric_names();
      for (std::size_t m = 0; m < names.size(); ++m) {
        check(served.at(names[m]).as_number() == direct[m],
              "service answer differs from simulate_point at " +
                  points_[index].id());
      }
    }

    std::vector<double> simulate_ms = hit_ms_;
    simulate_ms.insert(simulate_ms.end(), miss_ms_.begin(), miss_ms_.end());
    add_latencies(metrics, "service.simulate", simulate_ms);
    add_latencies(metrics, "service.hit", hit_ms_);
    add_latencies(metrics, "service.miss", miss_ms_);
    add_latencies(metrics, "service.interactive", interactive_ms_);
    for (const double rate : requests_per_s_) {
      add_sample(metrics, "service.requests_per_s", "1/s", rate);
    }
    const Json stats = service_->stats_json();
    add_sample(metrics, "service.cache_hit_rate", "ratio",
               stats.at("cache").at("hit_rate").as_number());
    add_sample(metrics, "service.cache_evictions", "count",
               stats.at("cache").at("evictions").as_number());
    add_sample(metrics, "service.rejected", "count",
               stats.at("scheduler").at("rejected").as_number());
  }

  std::uint64_t pinned_digest() const override {
    return env_.quick ? 0x98e5b6c56b5d8781ULL : 0xbc9c8425558b7bc9ULL;
  }

 private:
  static constexpr std::size_t kOutstanding = 4;
  static constexpr std::size_t kPredictLines = 64;

  enum class Kind { kSimulate, kPredict, kRecommend };
  struct Request {
    Kind kind = Kind::kSimulate;
    std::size_t index = 0;  ///< Simulate: into points_; predict: lines.
    const std::string* line = nullptr;
  };

  /// Restarts the request stream and builds the popularity order and
  /// every request line it can draw, so passes only pick lines.
  void make_requests() {
    Rng popularity(0x2F0C0DE5ULL);
    order_.resize(points_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[popularity.next_below(i)]);
    }
    stream_ = Rng(env_.seed);
    zipf_cdf_.resize(order_.size());
    double total = 0.0;
    for (std::size_t k = 0; k < order_.size(); ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      zipf_cdf_[k] = total;
    }

    simulate_lines_.clear();
    for (const DesignPoint& point : points_) {
      Json body;
      body["verb"] = "simulate";
      body["trace"] = "bfs";
      body["points"] = Json(Json::Array{service::design_point_to_json(point)});
      simulate_lines_.push_back(body.dump());
    }
    predict_lines_.clear();
    for (std::size_t l = 0; l < kPredictLines; ++l) {
      Json::Array batch;
      for (int p = 0; p < 64; ++p) {
        batch.push_back(service::design_point_to_json(
            points_[stream_.next_below(points_.size())]));
      }
      Json body;
      body["verb"] = "predict";
      body["model"] = "bw";
      body["points"] = Json(std::move(batch));
      predict_lines_.push_back(body.dump());
    }
    Json recommend;
    recommend["verb"] = "recommend";
    recommend["metric"] = "bandwidth_mbs";
    recommend["model"] = "bw";
    recommend_line_ = recommend.dump();
  }

  /// The stream's next pass of requests.
  std::vector<Request> next_requests() {
    std::vector<Request> requests(env_.quick ? 400 : 2000);
    for (Request& request : requests) {
      const double draw = stream_.next_double();
      if (draw < 0.5) {
        const double u = stream_.next_double() * zipf_cdf_.back();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        request.kind = Kind::kSimulate;
        request.index = order_[std::min(rank, order_.size() - 1)];
        request.line = &simulate_lines_[request.index];
      } else if (draw < 0.9) {
        request.kind = Kind::kPredict;
        request.index = stream_.next_below(kPredictLines);
        request.line = &predict_lines_[request.index];
      } else {
        request.kind = Kind::kRecommend;
        request.line = &recommend_line_;
      }
    }
    return requests;
  }

  /// Sends `requests` keeping kOutstanding in flight; fills latency_ms_
  /// and `responses` in request order.
  void run_requests(const std::vector<Request>& requests,
                    std::vector<Json>& responses) {
    Tracer& tracer = *env_.tracer;
    std::vector<std::string> lines(requests.size());
    latency_ms_.assign(requests.size(), 0.0);
    std::mutex mutex;
    std::condition_variable done;
    std::size_t in_flight = 0;
    const std::uint32_t parent = current_span();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [&] { return in_flight < kOutstanding; });
        ++in_flight;
      }
      const auto start = Clock::now();
      const std::uint32_t span = tracer.begin("service.request", parent);
      service_->handle_line(*requests[i].line, [&, i, start,
                                                span](std::string response) {
        latency_ms_[i] = seconds_since(start) * 1e3;
        lines[i] = std::move(response);
        tracer.end(span);
        const std::lock_guard<std::mutex> lock(mutex);
        --in_flight;
        done.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      done.wait(lock, [&] { return in_flight == 0; });
    }
    const Scope parsing(tracer, "bench.parse_responses");
    responses.clear();
    for (const std::string& line : lines) responses.push_back(Json::parse(line));
  }

  Env env_;
  std::vector<DesignPoint> points_;
  Input input_;
  std::vector<SweepRow> model_rows_;
  Rng stream_{0};
  std::vector<std::size_t> order_;  ///< Popularity rank -> point.
  std::vector<double> zipf_cdf_;
  std::vector<std::string> simulate_lines_;  ///< One per point.
  std::vector<std::string> predict_lines_;
  std::string recommend_line_;
  std::vector<double> latency_ms_;
  std::map<std::size_t, std::string> answers_;  ///< Point -> metrics JSON.
  std::vector<double> hit_ms_;
  std::vector<double> miss_ms_;
  std::vector<double> interactive_ms_;
  std::vector<double> requests_per_s_;
  /// Last member: destroyed (drained) before the state its requests use.
  std::unique_ptr<service::Service> service_;
};

// --- pipeline --------------------------------------------------------------

/// `run_pipeline` into the run directory, as a user runs it.  Its wall
/// time is set by the sweep journal's fsyncs (two per design point), so
/// it is not in BENCHMARK.json; the traced pass re-runs every stage one
/// public call at a time to attribute the sweep stage.
class Pipeline final : public Workload {
 public:
  explicit Pipeline(const Env& env)
      : env_(env),
        points_(env.quick ? kind_sample(dse::reduced_design_space(), 24)
                          : dse::paper_design_space()) {}

  /// run_pipeline builds its own inputs, from the seed, inside the pass.
  void setup() override {}

  PassOutput pass() override {
    fs::remove_all(out_dir());
    pipeline::PipelineOptions options;
    options.out_dir = out_dir();
    options.graph_vertices = vertices();
    options.edge_factor = 16;
    options.seed = env_.seed;
    options.design_points = points_;
    options.num_threads = env_.threads;
    timed(*env_.tracer, "pipeline.run_pipeline",
          [&] { result_ = pipeline::run_pipeline(options); });
    for (const pipeline::StageStatus& stage : result_.stages) {
      stage_s_[stage.name].push_back(stage.seconds);
    }

    Fnv1a h;
    h.mix(fnv1a_file(result_.sweep_csv));
    h.mix(fnv1a_file(result_.table1_path));
    h.mix(fnv1a_file(result_.recommendations_path));
    PassOutput out;
    out.digest = h.state;
    out.attempted = result_.health.total;
    out.failed = result_.health.total - result_.health.ok;
    out.simulated_events =
        static_cast<double>(result_.health.total) *
        static_cast<double>(
            tracestore::TraceStoreReader(result_.store_path).num_events());
    return out;
  }

  void drill(Metrics& layers) override {
    Tracer& tracer = *env_.tracer;
    const Input input = build_input(env_, GraphModel::kUniform, vertices());
    const std::string traced_dir = env_.dir + "/traced";
    fs::remove_all(traced_dir);
    fs::create_directories(traced_dir + "/models");

    std::vector<SweepRow> rows;
    dse::SweepOptions sweep;
    sweep.num_threads = env_.threads;
    const double sweep_s = timed(tracer, "dse.run_sweep", [&] {
      rows = dse::run_sweep(points_, *input.store, sweep);
    });
    const std::string csv_path = traced_dir + "/sweep.csv";
    const double save_s = timed(tracer, "dse.csv_save", [&] {
      dse::sweep_to_table(rows).save(csv_path);
    });
    check(read_file(csv_path) == read_file(result_.sweep_csv),
          "traced sweep rows differ from the pipeline's sweep.csv");
    std::vector<SweepRow> loaded;
    const double load_s = timed(tracer, "dse.csv_load", [&] {
      loaded = dse::table_to_sweep(CsvTable::load(csv_path));
    });

    const std::string journal_path = traced_dir + "/sweep.journal";
    double journal_bytes = 0.0;
    const double journal_s = timed(tracer, "dse.journal", [&] {
      dse::SweepJournal journal(journal_path,
                                dse::make_journal_key(points_, *input.store));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        journal.record(i, rows[i]);
        journal_bytes += static_cast<double>(fs::file_size(journal_path));
      }
    });

    std::string table1;
    dse::SurrogateSuite suite;
    const double train_s = timed(tracer, "ml.surrogate_train", [&] {
      suite = dse::SurrogateSuite::train(loaded);
      table1 = suite.format_table1();
    });
    check(table1 == read_file(result_.table1_path),
          "traced Table I differs from the pipeline's table1.txt");
    const double deploy_s = timed(tracer, "ml.deploy", [&] {
      for (const std::string& metric : dse::target_metric_names()) {
        const auto deployed = dse::SurrogateSuite::deploy(
            loaded, metric, suite.best_model(metric).model);
        ml::save_model_file(traced_dir + "/models/" + metric + ".model",
                            *deployed.model);
      }
    });
    std::string report;
    const double recommend_s = timed(tracer, "dse.recommend", [&] {
      report = "=== Best simulated points ===\n" +
               dse::format_recommendations(dse::recommend_from_sweep(loaded)) +
               "\n=== Best predicted points (surrogate over the design "
               "space) ===\n" +
               dse::format_recommendations(
                   dse::recommend_from_surrogate(loaded, points_));
    });
    check(report == read_file(result_.recommendations_path),
          "traced recommendations differ from the pipeline's report");

    add_sample(layers, "dse.grid_sweep_s", "s", sweep_s);
    add_sample(layers, "dse.csv_save_s", "s", save_s);
    add_sample(layers, "dse.csv_load_s", "s", load_s);
    add_sample(layers, "dse.journal_s", "s", journal_s);
    add_sample(layers, "dse.journal_records", "count",
               static_cast<double>(rows.size()));
    add_sample(layers, "dse.journal_bytes_written", "bytes", journal_bytes);
    add_sample(layers, "dse.recommend_s", "s", recommend_s);
    add_sample(layers, "ml.train_s", "s", train_s);
    add_sample(layers, "ml.deploy_s", "s", deploy_s);
    for (const pipeline::StageStatus& stage : result_.stages) {
      add_sample(layers, "pipeline.stage_" + stage.name + "_s", "s",
                 stage.seconds);
    }
    const double stage_sweep_s = stage_s_.at("sweep").back();
    add_sample(layers, "pipeline.unattributed_s", "s",
               stage_sweep_s - sweep_s - journal_s - save_s);

    memsim_dse_drill(env_, *input.store, kind_sample(points_, 30), layers);
    ml_drill(env_, rows, "svr", points_, layers);
  }

  void finish(Metrics& metrics) override {
    for (const auto& [name, seconds] : stage_s_) {
      for (const double s : seconds) {
        add_sample(metrics, "pipeline.stage_" + name + "_s", "s", s);
      }
    }
  }

  std::uint64_t pinned_digest() const override {
    return env_.quick ? 0xdaa2a437961278d9ULL : 0x6f35a7a8acf7997bULL;
  }

 private:
  std::string out_dir() const { return env_.dir + "/pipeline"; }
  std::uint32_t vertices() const { return env_.quick ? 256 : 1024; }

  Env env_;
  std::vector<DesignPoint> points_;
  pipeline::PipelineResult result_;
  std::map<std::string, std::vector<double>> stage_s_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "codesign", "sweep-rmat", "explore", "serve", "pipeline"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "codesign") return std::make_unique<Codesign>(env);
  if (name == "sweep-rmat") return std::make_unique<SweepRmat>(env);
  if (name == "explore") return std::make_unique<Explore>(env);
  if (name == "serve") return std::make_unique<Serve>(env);
  if (name == "pipeline") return std::make_unique<Pipeline>(env);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace gmd::bench_e2e
