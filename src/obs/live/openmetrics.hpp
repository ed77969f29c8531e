// OpenMetrics text rendering of a metrics snapshot, plus the parser
// stocdr-obsctl uses to consume it.
//
// Rendering rules (the subset of the OpenMetrics/Prometheus text format
// that fits this registry):
//   * names are sanitized (non-[A-Za-z0-9_] -> '_') and prefixed "stocdr_";
//   * counters render as "<name>_total <value>" with TYPE counter;
//   * gauges render as "<name> <value>" with TYPE gauge;
//   * histograms render as summaries: "<name>{quantile="0.5|0.9|0.99"}"
//     lines plus "<name>_sum" and "<name>_count";
//   * the document terminates with "# EOF" — its presence is how a reader
//     (obsctl watch) distinguishes a complete atomic snapshot from noise.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace stocdr::obs {

/// "mg.level.rho" -> "stocdr_mg_level_rho".
[[nodiscard]] std::string openmetrics_name(std::string_view name);

/// Renders a full snapshot (see file comment for the schema).
[[nodiscard]] std::string to_openmetrics(
    const std::vector<MetricSample>& samples);

/// One parsed sample line: `name` carries any suffix (_total/_sum/_count),
/// `labels` the raw text between braces ("" when unlabeled).
struct OpenMetricsSample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

struct OpenMetricsDocument {
  std::vector<OpenMetricsSample> samples;
  bool complete = false;  ///< saw the terminating "# EOF"
};

/// Parses OpenMetrics text; unparseable lines are skipped (never throws).
[[nodiscard]] OpenMetricsDocument parse_openmetrics(std::string_view text);

/// First sample matching `name` (and `labels` when given); NaN if absent.
[[nodiscard]] double openmetrics_value(const OpenMetricsDocument& doc,
                                       std::string_view name,
                                       std::string_view labels = "");

}  // namespace stocdr::obs
