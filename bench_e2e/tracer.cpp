#include <algorithm>
#include <fstream>
#include <utility>

#include "bench_e2e.hpp"
#include "gmd/common/error.hpp"
#include "gmd/service/json.hpp"

namespace gmd::bench_e2e {

namespace {

thread_local std::uint32_t t_current = 0;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : iv) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    total += end - start;
    reach = end;
  }
  return total;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent) {
  if (!enabled_) return 0;
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint32_t Tracer::last_id() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::uint32_t>(spans_.size());
}

Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer),
      id_(tracer.begin(std::move(name), t_current)),
      saved_current_(t_current) {
  if (id_ != 0) t_current = id_;
}

Scope::~Scope() {
  tracer_.end(id_);
  t_current = saved_current_;
}

std::uint32_t current_span() { return t_current; }

SpanTotals summarize_spans(const std::vector<Span>& spans,
                           std::uint32_t first_id, std::uint32_t last_id) {
  SpanTotals totals;
  const auto in_range = [&](std::uint32_t id) {
    return id >= first_id && id <= last_id && id <= spans.size();
  };
  const auto span_of = [&](std::uint32_t id) -> const Span& {
    return spans[id - 1];
  };
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (std::uint32_t id = first_id; in_range(id); ++id) {
    const Span& span = span_of(id);
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::int64_t root_ns = 0;
  std::int64_t root_covered_ns = 0;
  for (std::uint32_t id = first_id; in_range(id); ++id) {
    const Span& span = span_of(id);
    std::uint32_t root = id;
    while (span_of(root).parent != 0) root = span_of(root).parent;
    const std::string& root_name = span_of(root).name;
    if (root_name != "bench.setup" && root_name != "bench.pass") continue;
    const auto it = children.find(id);
    const std::int64_t child_ns =
        it == children.end() ? 0
                             : covered(it->second, span.start_ns, span.end_ns);
    const std::int64_t self_ns = span.end_ns - span.start_ns - child_ns;
    if (root == id) {
      root_ns += span.end_ns - span.start_ns;
      root_covered_ns += child_ns;
    } else {
      totals.self_by_layer[layer_of(span.name)] +=
          static_cast<double>(self_ns) * 1e-9;
    }
  }
  totals.coverage = root_ns > 0 ? static_cast<double>(root_covered_ns) /
                                      static_cast<double>(root_ns)
                                : 0.0;
  return totals;
}

void write_spans_jsonl(const std::string& path, const std::string& workload,
                       const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  GMD_REQUIRE(out.good(), "cannot write spans to '" << path << "'");
  for (const Span& span : spans) {
    service::Json line;
    line["id"] = span.id;
    line["parent"] = span.parent;
    line["name"] = span.name;
    line["workload"] = workload;
    line["start_ns"] = span.start_ns;
    line["end_ns"] = span.end_ns;
    out << line.dump() << '\n';
  }
  GMD_REQUIRE(out.good(), "write of '" << path << "' failed");
}

}  // namespace gmd::bench_e2e
