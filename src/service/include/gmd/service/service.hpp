#pragma once

/// \file service.hpp
/// The long-lived DSE query service: one resident process holds mmapped
/// traces (TraceLibrary), deployed surrogates (ModelRegistry), and a
/// bounded result cache (ResultCache), and answers line-oriented JSON
/// requests scheduled over the shared thread pool with per-request
/// deadlines and admission control (Scheduler).
///
/// Protocol (one JSON object per line, responses matched by echoed
/// "id"; responses may arrive out of request order):
///
///   {"verb":"simulate","id":1,"trace":"bfs","points":[{...}],
///    "sampling":{"fraction":0.25,"seed":7},"deadline_ms":5000}
///   ("sampling" also takes "warmup_chunks"; a store is sampled on its
///   own chunk index, so a "chunk_events" key is ignored)
///   {"verb":"predict","id":2,"model":"bw","points":[{...},{...}]}
///   {"verb":"recommend","id":3,"metric":"bandwidth_mbs","model":"bw"}
///   {"verb":"register_trace","alias":"bfs","path":"t.gmdt"}
///   {"verb":"register_model","name":"bw","path":"bw.gmdm"}
///   {"verb":"stats"}   {"verb":"health"}
///
/// Success: {"id":...,"ok":true,...}.  Failure: {"id":...,"ok":false,
/// "error":{"code":"overloaded"|"not-found"|"timeout"|...,"message":..}}.
/// Admission control rejects work beyond the queue bound with code
/// "overloaded" instead of queueing unboundedly; a request whose
/// deadline expires while queued or running fails with "timeout".
/// Simulation answers are cached: a hit returns the identical bits the
/// fresh simulation produced, flagged "cached":true.
///
/// Self-healing: a trace store or model that fails checksum/load/use is
/// quarantined (evicted from serving, re-probed at most once per
/// ServiceOptions::quarantine_probe_interval); requests naming it fail
/// fast with code "unavailable" while every other resource keeps
/// serving.  `health` reports "ok" | "degraded" (something is
/// quarantined) | "draining" with per-resource detail.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "gmd/service/json.hpp"
#include "gmd/service/model_registry.hpp"
#include "gmd/service/result_cache.hpp"
#include "gmd/service/scheduler.hpp"
#include "gmd/service/trace_library.hpp"

namespace gmd::service {

struct ServiceOptions {
  std::size_t num_threads = 0;        ///< Worker pool size (0: hardware).
  std::size_t max_queue_depth = 256;  ///< Admission bound (see Scheduler).
  std::size_t cache_capacity = 4096;  ///< ResultCache entries.
  std::size_t cache_shards = 8;
  /// Applied when a request carries no "deadline_ms"; zero = unlimited.
  std::chrono::milliseconds default_deadline{0};
  /// Minimum delay between re-probe attempts of one quarantined
  /// resource (see Registry).  Zero probes on every lookup — tests only.
  std::chrono::milliseconds quarantine_probe_interval{5000};
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  /// Drains accepted work (drain()), then tears down.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  TraceLibrary& traces() { return traces_; }
  ModelRegistry& models() { return models_; }
  ResultCache& cache() { return cache_; }

  /// Called with each response line (no trailing newline).  Async verbs
  /// invoke it from worker threads — it must be thread-safe.
  using ResponseSink = std::function<void(std::string)>;

  /// Handles one request line.  Registration/stats/health answer
  /// synchronously (before returning); simulate/predict/recommend are
  /// admitted to the scheduler and respond from a worker.  Every
  /// request produces exactly one response line, including malformed
  /// input and admission rejections — this never throws.
  void handle_line(const std::string& line, const ResponseSink& respond);

  /// Synchronous convenience (tests, simple clients): handles `line`
  /// and blocks for its single response.
  std::string handle(const std::string& line);

  /// Graceful shutdown: stops admitting, completes every accepted
  /// request (their responses still reach their sinks), and joins the
  /// workers.  Idempotent.
  void drain();
  bool draining() const { return scheduler_.draining(); }

  /// The "stats" response payload.
  Json stats_json() const;

  /// The "health" response payload: status "ok" | "degraded" |
  /// "draining" plus per-resource detail for everything quarantined.
  /// Calling it re-probes quarantined resources whose interval elapsed,
  /// so routine health polls double as the periodic recovery prober.
  Json health_json();

 private:
  struct Request;

  void dispatch(const Request& request, const ResponseSink& respond);
  Json run_simulate(const Request& request, Deadline* deadline);
  Json run_predict(const Request& request, Deadline* deadline);
  Json run_recommend(const Request& request, Deadline* deadline);

  ServiceOptions options_;
  TraceLibrary traces_;
  ModelRegistry models_;
  ResultCache cache_;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  /// Last member: destroyed (and therefore drained) before the
  /// components its queued tasks reference.
  Scheduler scheduler_;
};

/// JSON <-> DesignPoint mapping used by the protocol (exposed for the
/// client helper and tests).  parse_design_point applies DesignPoint
/// defaults for absent fields and throws Error(kInvalidData) for
/// unknown kinds or wrong types.
Json design_point_to_json(const dse::DesignPoint& point);
dse::DesignPoint parse_design_point(const Json& json);

}  // namespace gmd::service
