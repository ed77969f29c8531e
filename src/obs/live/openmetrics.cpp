#include "obs/live/openmetrics.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace stocdr::obs {

namespace {

/// Shortest round-trippable rendering; Prometheus spells non-finite values
/// "+Inf"/"-Inf"/"NaN".
std::string format_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void render_quantile(std::string& out, const std::string& name,
                     const char* quantile, double value) {
  out += name;
  out += "{quantile=\"";
  out += quantile;
  out += "\"} ";
  out += format_value(value);
  out += '\n';
}

}  // namespace

std::string openmetrics_name(std::string_view name) {
  std::string out = "stocdr_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string to_openmetrics(const std::vector<MetricSample>& samples) {
  std::string out;
  for (const MetricSample& sample : samples) {
    const std::string name = openmetrics_name(sample.name);
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + "_total " + format_value(sample.value) + '\n';
        break;
      case MetricSample::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + ' ' + format_value(sample.value) + '\n';
        break;
      case MetricSample::Kind::kHistogram:
        out += "# TYPE " + name + " summary\n";
        render_quantile(out, name, "0.5", sample.p50);
        render_quantile(out, name, "0.9", sample.p90);
        render_quantile(out, name, "0.99", sample.p99);
        out += name + "_sum " + format_value(sample.sum) + '\n';
        out += name + "_count " +
               format_value(static_cast<double>(sample.count)) + '\n';
        break;
    }
  }
  out += "# EOF\n";
  return out;
}

OpenMetricsDocument parse_openmetrics(std::string_view text) {
  OpenMetricsDocument doc;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    if (line.front() == '#') {
      if (line == "# EOF") doc.complete = true;
      continue;
    }

    OpenMetricsSample sample;
    std::size_t value_start;
    const std::size_t brace = line.find('{');
    if (brace != std::string_view::npos) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string_view::npos) continue;
      sample.name = std::string(line.substr(0, brace));
      sample.labels = std::string(line.substr(brace + 1, close - brace - 1));
      value_start = close + 1;
    } else {
      const std::size_t space = line.find(' ');
      if (space == std::string_view::npos) continue;
      sample.name = std::string(line.substr(0, space));
      value_start = space;
    }
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    if (value_start >= line.size()) continue;

    // The value field ends at the next space (an optional timestamp may
    // follow); strtod handles inf/nan spellings case-insensitively.
    const std::string value_text(
        line.substr(value_start, line.find(' ', value_start) - value_start));
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str()) continue;
    doc.samples.push_back(std::move(sample));
  }
  return doc;
}

double openmetrics_value(const OpenMetricsDocument& doc,
                         std::string_view name, std::string_view labels) {
  for (const OpenMetricsSample& sample : doc.samples) {
    if (sample.name == name && (labels.empty() || sample.labels == labels)) {
      return sample.value;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace stocdr::obs
