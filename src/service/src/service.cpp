#include "gmd/service/service.hpp"

#include <cmath>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/memsim/metrics.hpp"

namespace gmd::service {

namespace {

dse::MemoryKind parse_kind(const std::string& kind) {
  if (kind == "dram") return dse::MemoryKind::kDram;
  if (kind == "nvm") return dse::MemoryKind::kNvm;
  if (kind == "hybrid") return dse::MemoryKind::kHybrid;
  throw Error(ErrorCode::kInvalidData,
              "unknown memory kind '" + kind + "' (dram|nvm|hybrid)");
}

/// An integer field in [0, max], or `fallback` when absent.  `max` is
/// at most 2^53, the largest range a JSON double holds exactly, so no
/// value is rounded or truncated on the way in.
std::uint64_t parse_unsigned(const Json& object, const std::string& key,
                             std::uint64_t fallback, std::uint64_t max) {
  const Json& field = object.at(key);
  if (field.is_null()) return fallback;
  const double value = field.as_number();
  GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                 value >= 0 && value <= static_cast<double>(max) &&
                     value == std::floor(value),
                 "field '" << key << "' must be an integer in [0, " << max
                           << "]");
  return static_cast<std::uint64_t>(value);
}

std::uint32_t parse_u32(const Json& object, const std::string& key,
                        std::uint32_t fallback) {
  return static_cast<std::uint32_t>(
      parse_unsigned(object, key, fallback, UINT32_MAX));
}

Json error_json(const Json& id, ErrorCode code, const std::string& message) {
  Json response;
  response["id"] = id;
  response["ok"] = false;
  Json error;
  error["code"] = std::string(to_string(code));
  error["message"] = message;
  response["error"] = std::move(error);
  return response;
}

/// Runs `use` on the resource `name` from `registry`.  A failure whose
/// code says the *resource* (store bytes, model artifact) is bad — not
/// a malformed request or an expired budget — quarantines `name`
/// before the error propagates.
template <typename Resources, typename Use>
Json quarantine_on_fault(Resources& registry, const std::string& name,
                         Use use) {
  try {
    return use();
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kTrace || e.code() == ErrorCode::kIo ||
        e.code() == ErrorCode::kInvalidData) {
      registry.quarantine(name, e.code(), e.what());
    }
    throw;
  }
}

Json metrics_to_json(const dse::MetricsRow& row) {
  Json metrics;
  const auto& names = memsim::MemoryMetrics::metric_names();
  const std::vector<double> values = row.metrics.metric_values();
  for (std::size_t m = 0; m < names.size(); ++m) {
    metrics[names[m]] = values[m];
  }
  return metrics;
}

Json ci_to_json(const dse::MetricsRow& row) {
  Json::Array ci;
  const auto& names = memsim::MemoryMetrics::metric_names();
  for (std::size_t m = 0; m < row.metric_ci.size(); ++m) {
    Json interval;
    interval["metric"] = m < names.size() ? Json(names[m]) : Json(m);
    interval["lo"] = row.metric_ci[m].lo;
    interval["hi"] = row.metric_ci[m].hi;
    ci.push_back(std::move(interval));
  }
  return Json(std::move(ci));
}

}  // namespace

Json design_point_to_json(const dse::DesignPoint& point) {
  Json json;
  json["kind"] = to_string(point.kind);
  json["cpu_freq_mhz"] = point.cpu_freq_mhz;
  json["ctrl_freq_mhz"] = point.ctrl_freq_mhz;
  json["channels"] = point.channels;
  json["trcd"] = point.trcd;
  if (point.kind == dse::MemoryKind::kHybrid) {
    json["dram_fraction"] = point.dram_fraction;
  }
  json["id"] = point.id();
  return json;
}

dse::DesignPoint parse_design_point(const Json& json) {
  GMD_REQUIRE_AS(ErrorCode::kInvalidData, json.is_object(),
                 "design point must be a JSON object");
  dse::DesignPoint point;
  point.kind = parse_kind(json.string_or("kind", "dram"));
  point.cpu_freq_mhz = parse_u32(json, "cpu_freq_mhz", point.cpu_freq_mhz);
  point.ctrl_freq_mhz = parse_u32(json, "ctrl_freq_mhz", point.ctrl_freq_mhz);
  point.channels = parse_u32(json, "channels", point.channels);
  // tRCD keeps the technology-specific default when absent: DRAM's
  // fixed 9, or the DesignPoint default for NVM/hybrid.
  point.trcd = parse_u32(json, "trcd", point.trcd);
  point.dram_fraction = json.number_or("dram_fraction", point.dram_fraction);
  return point;
}

struct Service::Request {
  Json body;
  Json id;
  std::string verb;
  std::shared_ptr<Deadline> deadline;  ///< Null: unlimited.
};

Service::Service(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      scheduler_(Scheduler::Options{options.num_threads,
                                    options.max_queue_depth}) {
  traces_.set_probe_interval(options.quarantine_probe_interval);
  models_.set_probe_interval(options.quarantine_probe_interval);
}

Service::~Service() { drain(); }

void Service::drain() { scheduler_.shutdown(); }

void Service::handle_line(const std::string& line,
                          const ResponseSink& respond) {
  received_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  try {
    request.body = Json::parse(line);
    GMD_REQUIRE_AS(ErrorCode::kInvalidData, request.body.is_object(),
                   "request must be a JSON object");
    request.id = request.body.at("id");
    request.verb = request.body.string_or("verb", "");
    GMD_REQUIRE_AS(ErrorCode::kInvalidData, !request.verb.empty(),
                   "request is missing 'verb'");
  } catch (const Error& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    respond(error_json(request.id, e.code(), e.what()).dump());
    return;
  }

  // Kept aside: the catch blocks below must echo the id even after
  // `request` was moved into a scheduler task whose admission failed.
  const Json id = request.id;

  // Synchronous verbs: registration, stats, health.  These touch no
  // simulation state and answer in request order.
  try {
    if (request.verb == "health") {
      GMD_FAULT_POINT("service.health");
      Json response = health_json();
      response["id"] = request.id;
      response["ok"] = true;
      respond(response.dump());
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (request.verb == "stats") {
      GMD_FAULT_POINT("service.stats");
      Json response = stats_json();
      response["id"] = request.id;
      response["ok"] = true;
      respond(response.dump());
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (request.verb == "register_trace") {
      GMD_FAULT_POINT("service.register_trace");
      const std::string alias = request.body.at("alias").as_string();
      const std::string path = request.body.at("path").as_string();
      const std::uint64_t checksum = traces_.register_store(alias, path);
      Json response;
      response["id"] = request.id;
      response["ok"] = true;
      response["alias"] = alias;
      response["checksum"] = to_hex16(checksum);
      respond(response.dump());
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (request.verb == "register_model") {
      GMD_FAULT_POINT("service.register_model");
      const std::string name = request.body.at("name").as_string();
      const std::string path = request.body.at("path").as_string();
      const std::string family = models_.register_model(name, path);
      Json response;
      response["id"] = request.id;
      response["ok"] = true;
      response["name"] = name;
      response["family"] = family;
      respond(response.dump());
      completed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                   request.verb == "simulate" || request.verb == "predict" ||
                       request.verb == "recommend",
                   "unknown verb '" << request.verb << "'");

    // Async verbs: the deadline starts at admission, so time spent
    // queued counts against the request's budget.
    double deadline_ms = request.body.number_or(
        "deadline_ms", static_cast<double>(options_.default_deadline.count()));
    GMD_REQUIRE_AS(ErrorCode::kInvalidData, deadline_ms >= 0,
                   "'deadline_ms' must be non-negative");
    if (deadline_ms > 0) {
      request.deadline = std::make_shared<Deadline>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double, std::milli>(deadline_ms)));
    }
    const std::string priority_name = request.body.string_or(
        "priority", request.verb == "simulate" ? "bulk" : "interactive");
    GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                   priority_name == "interactive" || priority_name == "bulk",
                   "unknown priority '" << priority_name << "'");
    const Priority priority = priority_name == "interactive"
                                  ? Priority::kInteractive
                                  : Priority::kBulk;

    scheduler_.submit(priority,
                      [this, request = std::move(request), respond]() mutable {
                        dispatch(request, respond);
                      });
  } catch (const Error& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    respond(error_json(id, e.code(), e.what()).dump());
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    respond(error_json(id, ErrorCode::kUnspecified, e.what()).dump());
  }
}

std::string Service::handle(const std::string& line) {
  std::promise<std::string> promise;
  auto future = promise.get_future();
  handle_line(line, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

void Service::dispatch(const Request& request, const ResponseSink& respond) {
  try {
    Deadline* deadline = request.deadline.get();
    // A request that spent its whole budget queued is a timeout, not a
    // simulation: reject before touching any trace.
    if (deadline != nullptr) deadline->check_now();
    const std::string fault_site = "service." + request.verb;
    GMD_FAULT_POINT(fault_site);

    Json response;
    if (request.verb == "simulate") {
      response = run_simulate(request, deadline);
    } else if (request.verb == "predict") {
      response = run_predict(request, deadline);
    } else {
      response = run_recommend(request, deadline);
    }
    response["id"] = request.id;
    response["ok"] = true;
    respond(response.dump());
    completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const Error& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    respond(error_json(request.id, e.code(), e.what()).dump());
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    respond(error_json(request.id, ErrorCode::kUnspecified, e.what()).dump());
  }
}

Json Service::run_simulate(const Request& request, Deadline* deadline) {
  // Parse the whole request before touching the store: a malformed
  // request is the caller's fault and must never quarantine a resource.
  const std::string trace_name = request.body.at("trace").as_string();

  dse::SimulateOptions sim;
  sim.deadline = deadline;
  const Json& sampling = request.body.at("sampling");
  if (!sampling.is_null()) {
    sim.sample_fraction = sampling.number_or("fraction", 1.0);
    sim.sample_seed =
        parse_unsigned(sampling, "seed", 1, std::uint64_t{1} << 53);
    sim.sample_warmup_chunks = parse_u32(sampling, "warmup_chunks", 1);
  }

  const Json& points_json = request.body.at("points");
  GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                 points_json.is_array() && !points_json.as_array().empty(),
                 "'points' must be a non-empty array");
  std::vector<dse::DesignPoint> points;
  points.reserve(points_json.as_array().size());
  for (const Json& p : points_json.as_array()) {
    points.push_back(parse_design_point(p));
  }

  // From here on a kTrace/kIo/kInvalidData failure means the store's
  // bytes are bad (checksum mismatch, truncated mapping, torn file):
  // quarantine it so subsequent requests fail fast with "unavailable"
  // instead of re-reading rotten data, then surface the original error.
  const auto store = traces_.find(trace_name);
  const std::uint64_t checksum = store->content_checksum();
  return quarantine_on_fault(traces_, trace_name, [&] {
    Json::Array rows;
    std::uint64_t hits = 0;
    for (const dse::DesignPoint& point : points) {
      if (deadline != nullptr) deadline->check_now();
      const std::uint64_t key = simulate_cache_key(checksum, point, sim);
      std::shared_ptr<const dse::MetricsRow> row =
          cache_.get(key).value_or(nullptr);
      const bool cached = row != nullptr;
      if (!cached) {
        dse::SimulateOptions options = sim;
        // A point that replays a feed replays the one cached for its
        // feed key; a sampled point streams the store's own chunks.
        std::shared_ptr<const dse::Feed> feed;
        if (dse::replays_feed(point, options.sample_fraction)) {
          dse::validate(point);  // Before spending a predecode on it.
          feed = traces_.feed(*store, point);
          options.feed = feed.get();
        }
        row = std::make_shared<const dse::MetricsRow>(
            dse::simulate_point(*store, point, options));
        cache_.put(key, row);
      } else {
        ++hits;
      }
      Json row_json;
      row_json["point"] = design_point_to_json(point);
      row_json["metrics"] = metrics_to_json(*row);
      if (row->sampled()) row_json["ci"] = ci_to_json(*row);
      row_json["cached"] = cached;
      rows.push_back(std::move(row_json));
    }

    Json response;
    response["trace"] = to_hex16(checksum);
    response["rows"] = Json(std::move(rows));
    response["cache_hits"] = hits;
    return response;
  });
}

Json Service::run_predict(const Request& request, Deadline* deadline) {
  // Request parsing first — it must never quarantine the model.
  const std::string model_name = request.body.at("model").as_string();
  const Json& points_json = request.body.at("points");
  GMD_REQUIRE_AS(ErrorCode::kInvalidData, points_json.is_array(),
                 "'points' must be an array");
  std::vector<dse::DesignPoint> points;
  points.reserve(points_json.as_array().size());
  for (const Json& p : points_json.as_array()) {
    points.push_back(parse_design_point(p));
  }

  const auto model = models_.find(model_name);
  if (deadline != nullptr) deadline->check_now();

  return quarantine_on_fault(models_, model_name, [&] {
    GMD_FAULT_POINT("service.model_predict");
    // One matrix build + one batch inference for the whole request.
    const std::vector<double> values = model->predict(points);
    Json::Array values_json(values.begin(), values.end());

    Json response;
    response["model"] = model_name;
    response["family"] = model->model->name();
    response["values"] = Json(std::move(values_json));
    return response;
  });
}

Json Service::run_recommend(const Request& request, Deadline* deadline) {
  const std::string metric = request.body.at("metric").as_string();
  const dse::Direction direction = dse::metric_direction(metric);
  const std::string model_name = request.body.at("model").as_string();
  const auto model = models_.find(model_name);

  std::vector<dse::DesignPoint> candidates;
  const Json& points_json = request.body.at("points");
  if (points_json.is_null()) {
    candidates = dse::paper_design_space();  // The paper's 416 points.
  } else {
    GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                   points_json.is_array() && !points_json.as_array().empty(),
                   "'points' must be a non-empty array");
    candidates.reserve(points_json.as_array().size());
    for (const Json& p : points_json.as_array()) {
      candidates.push_back(parse_design_point(p));
    }
  }
  if (deadline != nullptr) deadline->check_now();

  return quarantine_on_fault(models_, model_name, [&] {
    GMD_FAULT_POINT("service.model_predict");
    const std::vector<double> values = model->predict(candidates);
    std::size_t best = 0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      const bool better = direction == dse::Direction::kMinimize
                              ? values[i] < values[best]
                              : values[i] > values[best];
      if (better) best = i;
    }

    Json response;
    response["metric"] = metric;
    response["direction"] =
        direction == dse::Direction::kMinimize ? "minimize" : "maximize";
    response["model"] = model_name;
    response["best"] = design_point_to_json(candidates[best]);
    response["value"] = values[best];
    response["candidates"] = candidates.size();
    return response;
  });
}

Json Service::stats_json() const {
  Json stats;
  const ResultCache::Stats cache = cache_.stats();
  Json cache_json;
  cache_json["hits"] = cache.hits;
  cache_json["misses"] = cache.misses;
  cache_json["evictions"] = cache.evictions;
  cache_json["entries"] = cache.entries;
  cache_json["capacity"] = cache.capacity;
  cache_json["hit_rate"] = cache.hit_rate();
  stats["cache"] = std::move(cache_json);

  const Scheduler::Stats sched = scheduler_.stats();
  Json sched_json;
  sched_json["accepted"] = sched.accepted;
  sched_json["rejected"] = sched.rejected;
  sched_json["executed"] = sched.executed;
  sched_json["queue_depth"] = sched.queue_depth;
  sched_json["max_queue_depth"] = scheduler_.max_queue_depth();
  sched_json["threads"] = scheduler_.num_threads();
  stats["scheduler"] = std::move(sched_json);

  Json requests;
  requests["received"] = received_.load(std::memory_order_relaxed);
  requests["completed"] = completed_.load(std::memory_order_relaxed);
  requests["failed"] = failed_.load(std::memory_order_relaxed);
  stats["requests"] = std::move(requests);

  stats["traces"] = traces_.size();
  stats["cached_feeds"] = traces_.cached_feeds();
  stats["models"] = models_.size();
  return stats;
}

Json Service::health_json() {
  // Health polls double as the periodic prober: any quarantined
  // resource whose interval elapsed gets one recovery attempt here, so
  // a store restored on disk comes back without an explicit nudge.
  traces_.probe_due();
  models_.probe_due();

  Json response;
  Json::Array resources;
  const auto add = [&resources](const std::string& type,
                                const QuarantinedResource& info) {
    Json resource;
    resource["type"] = type;
    resource["name"] = info.name;
    resource["status"] = "quarantined";
    resource["code"] = std::string(to_string(info.code));
    resource["reason"] = info.reason;
    resource["probes"] = info.probes;
    resources.push_back(std::move(resource));
  };
  const auto quarantined_traces = traces_.quarantined();
  const auto quarantined_models = models_.quarantined();
  for (const auto& info : quarantined_traces) add("trace", info);
  for (const auto& info : quarantined_models) add("model", info);

  const bool degraded =
      !quarantined_traces.empty() || !quarantined_models.empty();
  response["status"] =
      draining() ? "draining" : (degraded ? "degraded" : "ok");
  response["traces"] = traces_.size();
  response["models"] = models_.size();
  response["quarantined"] = resources.size();
  if (!resources.empty()) response["resources"] = Json(std::move(resources));
  return response;
}

}  // namespace gmd::service
