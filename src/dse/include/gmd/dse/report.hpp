#pragma once

/// \file report.hpp
/// Markdown report generation: turns a study's sweep rows and the
/// surrogates trained on them into a self-contained document (the
/// deliverable a DSE study hands to the architecture team) —
/// Figure-2-style metric table, Table-I-style model scores,
/// recommendations, sensitivity, and the Pareto front.
/// `gmd pipeline --report PATH` renders one from a run's sweep.csv.

#include <iosfwd>
#include <span>
#include <string>

#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::dse {

struct ReportOptions {
  std::string title = "Memory co-design study";
  bool include_metric_table = true;   ///< Fig. 2 analogue.
  bool include_model_scores = true;   ///< Table I analogue.
  bool include_recommendations = true;
  bool include_pareto = true;         ///< power vs total latency front.
  bool include_sensitivity = true;    ///< Main-effects knob analysis.
};

/// Writes the study as GitHub-flavored markdown.  `rows` are the
/// simulated points (the training set; a pipeline's sweep.csv holds
/// exactly these) and `suite` the surrogates trained on them; the
/// recommendations are recommend_from_sweep(rows).  Throws on empty
/// `rows`.
void write_markdown_report(std::ostream& os, std::span<const SweepRow> rows,
                           const SurrogateSuite& suite,
                           const ReportOptions& options = {});

/// Convenience: render to a string / save to a file.
std::string markdown_report(std::span<const SweepRow> rows,
                            const SurrogateSuite& suite,
                            const ReportOptions& options = {});
void save_markdown_report(const std::string& path,
                          std::span<const SweepRow> rows,
                          const SurrogateSuite& suite,
                          const ReportOptions& options = {});

}  // namespace gmd::dse
