#pragma once

/// \file bench_e2e.hpp
/// Shared pieces of the end-to-end benchmark: in-memory spans, metric
/// samples, the workload interface, and the results/compare helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace gmd::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- spans ---------------------------------------------------------------

/// One timed call.  Names are "<layer>.<call>"; the layer is the module
/// doing the call's work.  Roots (parent 0) are "bench.setup",
/// "bench.pass" and "bench.drill".
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;  ///< Since the tracer was created.
  std::int64_t end_ns = 0;
};

/// Records spans in memory; a disabled tracer records nothing, so the
/// end-to-end pass pays one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (0 when disabled).  Safe to call
  /// from any thread.
  std::uint32_t begin(std::string name, std::uint32_t parent);
  void end(std::uint32_t id);
  std::vector<Span> spans() const;
  /// Id of the most recent span (0: none yet).
  std::uint32_t last_id() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< spans_[id - 1].
};

/// A span over the enclosing C++ scope, parented to the calling
/// thread's innermost open Scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  std::uint32_t saved_current_;
};

/// The calling thread's innermost open Scope (0: none) — the parent for
/// spans opened with Tracer::begin on behalf of this thread's work.
std::uint32_t current_span();

/// Totals over the spans with ids in [first_id, last_id].
struct SpanTotals {
  /// Self time (duration minus the union of its children's intervals)
  /// by layer, over the descendants of "bench.setup" and "bench.pass".
  std::map<std::string, double> self_by_layer;
  /// Share of the setup and pass roots' time covered by their children.
  double coverage = 0.0;
};
SpanTotals summarize_spans(const std::vector<Span>& spans,
                           std::uint32_t first_id, std::uint32_t last_id);

/// Appends one JSON object per span: {id, parent, name, workload,
/// start_ns, end_ns}.
void write_spans_jsonl(const std::string& path, const std::string& workload,
                       const std::vector<Span>& spans);

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string unit;
  std::vector<double> samples;  ///< One per pass or traced iteration.
};
using Metrics = std::map<std::string, Metric>;

void add_sample(Metrics& metrics, const std::string& name,
                const std::string& unit, double value);
double median(std::vector<double> values);
/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (exclusive method); needs at least two values.
std::vector<double> quartiles(std::vector<double> values);

// --- workloads -----------------------------------------------------------

struct Env {
  std::uint64_t seed = 1;  ///< Reaches only the input generators.
  std::size_t threads = 1;
  bool quick = false;
  std::string dir;  ///< Scratch directory owned by this workload run.
  Tracer* tracer = nullptr;
  /// Traced mode: where set-up adds its per-layer samples (else null).
  Metrics* layers = nullptr;
};

/// What one pass produced, for the correctness checks and metrics.
struct PassOutput {
  std::uint64_t digest = 0;  ///< Hash of every output the pass produced.
  /// Whether every pass runs the same inputs, so every pass's digest
  /// must equal the first's.  False for a stream of fresh requests,
  /// where only the first pass after set-up is pinned.
  bool same_inputs_every_pass = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double simulated_events = 0.0;  ///< Points simulated x trace events.
};

/// A failed correctness check.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Throws CheckFailure(what) unless `ok`.
void check(bool ok, const std::string& what);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from Env::seed; may run several times.
  virtual void setup() = 0;
  /// One pass of the work a user waits for.
  virtual PassOutput pass() = 0;
  /// Traced mode: re-runs the workload's layers one public call at a
  /// time on the current inputs and adds one sample per layer metric.
  virtual void drill(Metrics& layers) = 0;
  /// After the last pass: final checks, plus the workload's own metrics
  /// (recorded in the results file, not in the result line).
  virtual void finish(Metrics& metrics) { (void)metrics; }
  /// The pass digest expected at seed 1 (0: not pinned).
  virtual std::uint64_t pinned_digest() const = 0;
};

/// The workloads BENCHMARK.json lists, then the ones only run by hand.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env);

// --- results ---------------------------------------------------------------

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string git_sha;
  bool git_dirty = false;
  std::string run_dir_fs;
};
HostFingerprint host_fingerprint(const std::string& run_dir);

/// Everything one `bench_e2e --workload NAME` run measured.
struct WorkloadRun {
  std::string workload;
  bool traced = false;
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  Metrics metrics;  ///< End-to-end (untraced) or per-layer (traced).
};

/// Results file text: host fingerprint, options and every run.
std::string results_json(const HostFingerprint& host, std::uint64_t seed,
                         double seconds, std::size_t threads, bool quick,
                         const std::vector<WorkloadRun>& runs);
/// Parses the runs back out of a results file.
std::vector<WorkloadRun> load_results(const std::string& path,
                                      std::string* run_dir_fs);
/// Metric names BENCHMARK.json declares: its per_layer list when
/// `per_layer`, else its end_to_end list.
std::vector<std::string> declared_metrics(bool per_layer);
/// Whether BENCHMARK.json lists the workload.
bool declared_workload(const std::string& name);
/// The last stdout line of a single-workload run: the declared metrics only.
std::string result_line(const WorkloadRun& run,
                        const std::vector<std::string>& declared);

/// `--compare BASE NEW`: each side is a results file or a directory of
/// them.  Prints one verdict per (workload, end-to-end metric) and
/// returns the process exit code.
int compare_results(const std::string& base, const std::string& next);

}  // namespace gmd::bench_e2e
