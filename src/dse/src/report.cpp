#include "gmd/dse/report.hpp"

#include <array>
#include <fstream>
#include <map>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/dse/pareto.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/dse/sensitivity.hpp"

namespace gmd::dse {

namespace {

struct CellKey {
  std::uint32_t cpu, ctrl, channels;
  auto operator<=>(const CellKey&) const = default;
};

struct CellMean {
  std::array<double, 6> sums{};
  std::size_t count = 0;
  void add(const std::vector<double>& values) {
    for (std::size_t i = 0; i < 6; ++i) sums[i] += values[i];
    ++count;
  }
  double mean(std::size_t i) const {
    return count ? sums[i] / static_cast<double>(count) : 0.0;
  }
};

void write_metric_table(std::ostream& os,
                        std::span<const SweepRow> sweep) {
  std::map<CellKey, std::map<MemoryKind, CellMean>> cells;
  for (const SweepRow& row : sweep) {
    cells[{row.point.cpu_freq_mhz, row.point.ctrl_freq_mhz,
           row.point.channels}][row.point.kind]
        .add(row.metrics.metric_values());
  }
  os << "## Memory performance summary (Fig. 2 analogue)\n\n";
  os << "Cell values are D / N / H means over tRCD variants.\n\n";
  os << "| CPU MHz | Ctrl MHz | Ch | Power (W) | Bandwidth (MB/s) | "
        "Latency (cy) | Total latency (cy) |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& [key, kinds] : cells) {
    const auto format_cell = [&](std::size_t metric, int digits) {
      std::string text;
      for (const MemoryKind kind :
           {MemoryKind::kDram, MemoryKind::kNvm, MemoryKind::kHybrid}) {
        if (!text.empty()) text += " / ";
        const auto it = kinds.find(kind);
        text += it == kinds.end() ? "-"
                                  : format_fixed(it->second.mean(metric),
                                                 digits);
      }
      return text;
    };
    os << "| " << key.cpu << " | " << key.ctrl << " | " << key.channels
       << " | " << format_cell(0, 3) << " | " << format_cell(1, 0) << " | "
       << format_cell(2, 1) << " | " << format_cell(3, 0) << " |\n";
  }
  os << "\n";
}

void write_model_scores(std::ostream& os, const SurrogateSuite& suite) {
  os << "## Surrogate model scores (Table I analogue)\n\n";
  os << "| metric | model | MSE | R2 | best |\n";
  os << "|---|---|---|---|---|\n";
  for (const SurrogateScore& score : suite.scores()) {
    const bool is_best =
        suite.best_model(score.metric).model == score.model;
    os << "| " << score.metric << " | " << score.model << " | "
       << format_sci(score.mse, 2) << " | " << format_fixed(score.r2, 4)
       << " | " << (is_best ? "**yes**" : "") << " |\n";
  }
  os << "\n";
}

void write_recommendations(std::ostream& os,
                           std::span<const Recommendation> recs) {
  os << "## Recommendations\n\n";
  for (const Recommendation& rec : recs) {
    os << "- **" << rec.metric << "**: `" << rec.best.id() << "` ("
       << format_fixed(rec.value, rec.value < 10.0 ? 4 : 2) << "; "
       << rec.rationale << ")\n";
  }
  os << "\n";
}

void write_pareto(std::ostream& os, std::span<const SweepRow> sweep) {
  const std::vector<Objective> objectives = {
      Objective("power_w"), Objective("total_latency_cycles")};
  const auto front = pareto_front(sweep, objectives);
  os << "## Power / total-latency Pareto front\n\n";
  os << "| configuration | power (W) | total latency (cy) |\n";
  os << "|---|---|---|\n";
  for (const std::size_t index : front) {
    const SweepRow& row = sweep[index];
    os << "| `" << row.point.id() << "` | "
       << format_fixed(row.metrics.avg_power_per_channel_w, 4) << " | "
       << format_fixed(row.metrics.avg_total_latency_cycles, 1) << " |\n";
  }
  os << "\n";
}

void write_sensitivity(std::ostream& os, std::span<const SweepRow> sweep) {
  os << "## Parameter sensitivity (main effects)\n\n";
  os << "Leverage = (max level mean - min level mean) / overall mean.\n\n";
  os << "| metric | dominant knob | leverage | best level |\n";
  os << "|---|---|---|---|\n";
  for (const std::string& metric : target_metric_names()) {
    const SensitivityResult analysis = analyze_sensitivity(sweep, metric);
    const ParameterEffect& top = analysis.dominant();
    os << "| " << metric << " | " << top.parameter << " | "
       << format_fixed(top.relative_effect * 100.0, 1) << "% | "
       << top.best_level << " |\n";
  }
  os << "\n";
}

}  // namespace

void write_markdown_report(std::ostream& os, std::span<const SweepRow> rows,
                           const SurrogateSuite& suite,
                           const ReportOptions& options) {
  GMD_REQUIRE(!rows.empty(), "cannot report on an empty study");
  os << "# " << options.title << "\n\n";
  os << "- configurations simulated: " << rows.size() << "\n\n";

  if (options.include_metric_table) write_metric_table(os, rows);
  if (options.include_model_scores) write_model_scores(os, suite);
  if (options.include_recommendations)
    write_recommendations(os, recommend_from_sweep(rows));
  if (options.include_sensitivity) write_sensitivity(os, rows);
  if (options.include_pareto) write_pareto(os, rows);
}

std::string markdown_report(std::span<const SweepRow> rows,
                            const SurrogateSuite& suite,
                            const ReportOptions& options) {
  std::ostringstream os;
  write_markdown_report(os, rows, suite, options);
  return os.str();
}

void save_markdown_report(const std::string& path,
                          std::span<const SweepRow> rows,
                          const SurrogateSuite& suite,
                          const ReportOptions& options) {
  std::ofstream out(path);
  GMD_REQUIRE(out.good(), "cannot open '" << path << "' for writing");
  write_markdown_report(out, rows, suite, options);
  GMD_REQUIRE(out.good(), "write to '" << path << "' failed");
}

}  // namespace gmd::dse
