// Live telemetry export (src/obs/live/): OpenMetrics rendering/parsing and
// the background exporter's heartbeat contract.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/live/exporter.hpp"
#include "obs/live/openmetrics.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace stocdr::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- name sanitization ------------------------------------------------------

TEST(OpenMetricsTest, NamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(openmetrics_name("mg.level0.rho"), "stocdr_mg_level0_rho");
  EXPECT_EQ(openmetrics_name("health.mass_audits"),
            "stocdr_health_mass_audits");
  EXPECT_EQ(openmetrics_name("a-b c"), "stocdr_a_b_c");
}

// --- rendering --------------------------------------------------------------

TEST(OpenMetricsTest, RendersEveryKindAndTerminates) {
  std::vector<MetricSample> samples;
  MetricSample counter;
  counter.name = "robust.solves";
  counter.kind = MetricSample::Kind::kCounter;
  counter.value = 3.0;
  samples.push_back(counter);
  MetricSample gauge;
  gauge.name = "export.heartbeat";
  gauge.kind = MetricSample::Kind::kGauge;
  gauge.value = 2.0;
  samples.push_back(gauge);
  MetricSample histogram;
  histogram.name = "mg.level.rho";
  histogram.kind = MetricSample::Kind::kHistogram;
  histogram.count = 10;
  histogram.sum = 4.0;
  histogram.p50 = 0.3;
  histogram.p90 = 0.5;
  histogram.p99 = 0.7;
  samples.push_back(histogram);

  const std::string text = to_openmetrics(samples);
  EXPECT_NE(text.find("# TYPE stocdr_robust_solves counter"),
            std::string::npos);
  EXPECT_NE(text.find("stocdr_robust_solves_total 3"), std::string::npos);
  EXPECT_NE(text.find("stocdr_export_heartbeat 2"), std::string::npos);
  EXPECT_NE(text.find("stocdr_mg_level_rho{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stocdr_mg_level_rho_count 10"), std::string::npos);
  // The "# EOF" terminator is the completeness signal for watchers.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// --- round trip -------------------------------------------------------------

TEST(OpenMetricsTest, ParseRoundTripsRenderedValues) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset_all();
  registry.counter("roundtrip.count").add(42);
  registry.gauge("roundtrip.gauge").set(2.5);
  auto& histogram = registry.histogram("roundtrip.hist");
  for (int i = 1; i <= 100; ++i) histogram.observe(static_cast<double>(i));

  const OpenMetricsDocument doc =
      parse_openmetrics(to_openmetrics(registry.snapshot()));
  EXPECT_TRUE(doc.complete);
  EXPECT_DOUBLE_EQ(openmetrics_value(doc, "stocdr_roundtrip_count_total"),
                   42.0);
  EXPECT_DOUBLE_EQ(openmetrics_value(doc, "stocdr_roundtrip_gauge"), 2.5);
  EXPECT_DOUBLE_EQ(openmetrics_value(doc, "stocdr_roundtrip_hist_count"),
                   100.0);
  const double p50 =
      openmetrics_value(doc, "stocdr_roundtrip_hist", "quantile=\"0.5\"");
  EXPECT_GT(p50, 0.0);
  // Absent metric: NaN, not zero.
  EXPECT_TRUE(std::isnan(openmetrics_value(doc, "stocdr_no_such_metric")));
  registry.reset_all();
}

TEST(OpenMetricsTest, ParserSkipsGarbageAndFlagsIncompleteDocuments) {
  const OpenMetricsDocument doc = parse_openmetrics(
      "# TYPE stocdr_x gauge\n"
      "stocdr_x 1.5\n"
      "this line is not a metric at all {{{\n"
      "stocdr_y 2\n");
  EXPECT_FALSE(doc.complete);  // no "# EOF"
  EXPECT_EQ(doc.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(openmetrics_value(doc, "stocdr_x"), 1.5);
}

// --- exporter ---------------------------------------------------------------

TEST(LiveExporterTest, HeartbeatAdvancesAndFileIsComplete) {
  const std::string path = test::unique_temp_path("live_export.om");
  std::remove(path.c_str());
  MetricsRegistry::instance().counter("export.test.work").add(1);

  LiveExporter::Options options;
  options.path = path;
  options.period_ms = 20;
  {
    LiveExporter exporter(options);
    exporter.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    exporter.stop();
    // start() publishes once, stop() publishes once: >= 2 regardless of
    // scheduling; the 100ms sleep at 20ms cadence makes more likely.
    EXPECT_GE(exporter.ticks(), 2u);

    const OpenMetricsDocument doc = parse_openmetrics(read_file(path));
    EXPECT_TRUE(doc.complete);  // atomic replace: never a torn document
    EXPECT_DOUBLE_EQ(openmetrics_value(doc, "stocdr_export_heartbeat"),
                     static_cast<double>(exporter.ticks()));
    EXPECT_GE(openmetrics_value(doc, "stocdr_export_test_work_total"), 1.0);
  }
  std::remove(path.c_str());
}

TEST(LiveExporterTest, StartAndStopAreIdempotent) {
  const std::string path = test::unique_temp_path("live_idem.om");
  LiveExporter::Options options;
  options.path = path;
  options.period_ms = 50;
  LiveExporter exporter(options);
  exporter.start();
  exporter.start();
  exporter.stop();
  exporter.stop();
  EXPECT_GE(exporter.ticks(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stocdr::obs
