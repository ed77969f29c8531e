// Observability primitives: JSON emission, metrics, and trace sinks.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::obs {
namespace {

// --- JSON emission ----------------------------------------------------------

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("mg.level"), "mg.level");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string("a\x7f") + "b"), "a\\u007fb");
}

TEST(JsonEscapeTest, PassesWellFormedUtf8Through) {
  EXPECT_EQ(json_escape("\xc2\xb5s"), "\xc2\xb5s");              // µs
  EXPECT_EQ(json_escape("\xe2\x86\x92"), "\xe2\x86\x92");        // →
  EXPECT_EQ(json_escape("\xf0\x9f\x98\x80"), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonEscapeTest, ReplacesIllFormedUtf8Bytes) {
  // Stray continuation byte, truncated lead, overlong encoding, lone
  // surrogate: every bad byte becomes an escaped U+FFFD, never raw output.
  EXPECT_EQ(json_escape("a\x80""b"), "a\\ufffdb");
  EXPECT_EQ(json_escape("a\xc2"), "a\\ufffd");                // truncated
  EXPECT_EQ(json_escape("\xc0\xaf"), "\\ufffd\\ufffd");       // overlong '/'
  EXPECT_EQ(json_escape("\xed\xa0\x80"),
            "\\ufffd\\ufffd\\ufffd");                         // surrogate
  EXPECT_EQ(json_escape("\xff"), "\\ufffd");
}

TEST(JsonNumberTest, FiniteAndNonFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()),
            "\"nan\"");
}

TEST(JsonWriterTest, NestedObjectsArraysAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "solve");
  w.field("states", std::uint64_t{1024});
  w.field("residual", 0.5);
  w.field("converged", true);
  w.key("history");
  w.begin_array();
  w.value(1.0);
  w.value(0.25);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"name\":\"solve\",\"states\":1024,\"residual\":0.5,"
            "\"converged\":true,\"history\":[1,0.25],\"nested\":{}}");
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsPrimitivesTest, CounterAddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add(5);
  counter.add(2);
  EXPECT_EQ(counter.value(), 7u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsPrimitivesTest, HistogramTracksExtremaAndMean) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), 0.0);  // defined zero before any observation
  EXPECT_EQ(histogram.max(), 0.0);
  histogram.observe(2.0);
  histogram.observe(-1.0);
  histogram.observe(5.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.min(), -1.0);
  EXPECT_EQ(histogram.max(), 5.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 2.0);
}

// The log-bucket quantile estimate is within one bucket width of the truth:
// a factor of 10^(1/kBucketsPerDecade) ~ 1.334.
constexpr double kBucketFactor = 1.3336;

TEST(MetricsPrimitivesTest, HistogramQuantilesOnUniformValues) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.observe(static_cast<double>(i));
  EXPECT_EQ(histogram.quantile(0.0), 1.0);      // clamped to exact min
  EXPECT_EQ(histogram.quantile(1.0), 1000.0);   // clamped to exact max
  const double p50 = histogram.quantile(0.50);
  const double p90 = histogram.quantile(0.90);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GE(p50, 500.0 / kBucketFactor);
  EXPECT_LE(p50, 500.0 * kBucketFactor);
  EXPECT_GE(p90, 900.0 / kBucketFactor);
  EXPECT_LE(p90, 900.0 * kBucketFactor);
  EXPECT_GE(p99, 990.0 / kBucketFactor);
  EXPECT_LE(p99, 1000.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(MetricsPrimitivesTest, HistogramQuantilesOnLogSpreadValues) {
  // Residual-reduction style data spanning many decades.
  Histogram histogram;
  const double values[] = {1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 2.0, 1e3};
  for (const double v : values) histogram.observe(v);
  const double p50 = histogram.quantile(0.5);
  // True median is between 0.1 and 0.5.
  EXPECT_GE(p50, 0.1 / kBucketFactor);
  EXPECT_LE(p50, 0.5 * kBucketFactor);
}

TEST(MetricsPrimitivesTest, HistogramSingleValueQuantilesAreExact) {
  Histogram histogram;
  histogram.observe(0.37);
  // Clamping to the exact extrema makes every quantile exact here.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.37);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 0.37);
}

TEST(MetricsPrimitivesTest, HistogramTerminalBucketInterpolatesWithinExtrema) {
  // All observations land in one log bucket.  Before the hit-bucket bounds
  // were tightened to the exact extrema, the p99 estimate collapsed onto
  // the bucket's upper edge (then clamped to max), so tail quantiles of
  // tightly clustered data were pinned to 10^(k/kBucketsPerDecade) values.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.observe(0.025 + 0.00005 * i);  // [0.025, 0.03), one bucket
  }
  const double p50 = histogram.quantile(0.50);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GT(p50, 0.025);
  EXPECT_LT(p50, 0.030);
  EXPECT_GT(p99, p50);
  EXPECT_LT(p99, histogram.max());  // not pinned to the bucket edge or max
}

TEST(MetricsPrimitivesTest, HistogramHandlesNonPositiveAndExtremeValues) {
  Histogram histogram;
  histogram.observe(0.0);
  histogram.observe(-3.0);
  histogram.observe(1e20);  // overflow bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.quantile(0.0), -3.0);   // underflow resolves to min
  EXPECT_EQ(histogram.quantile(1.0), 1e20);   // overflow resolves to max
}

TEST(MetricsPrimitivesTest, HistogramResetClearsEverything) {
  Histogram histogram;
  histogram.observe(4.0);
  histogram.observe(7.0);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
  histogram.observe(2.0);  // usable again after reset
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 2.0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("obs.test.zzz").add(1);
  registry.gauge("obs.test.aaa").set(1.0);
  registry.histogram("obs.test.mmm").observe(1.0);
  const auto samples = registry.snapshot();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].name, samples[i].name);
  }
}

TEST(MetricsRegistryTest, SnapshotOmitsMetricsThatDidNotFire) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("obs.test.ghost_counter").add(4);
  registry.gauge("obs.test.ghost_gauge").set(2.0);
  registry.histogram("obs.test.ghost_histogram").observe(1.0);
  registry.counter("obs.test.idle_counter");
  registry.gauge("obs.test.idle_gauge");
  registry.histogram("obs.test.idle_histogram");
  registry.reset_all();
  registry.gauge("obs.test.zero_gauge").set(0.0);
  const auto samples = registry.snapshot();
  const auto has = [&samples](const char* name) {
    return std::any_of(samples.begin(), samples.end(),
                       [name](const MetricSample& s) { return s.name == name; });
  };
  // Absent, not zero: reset since they fired, or never fired at all.
  EXPECT_FALSE(has("obs.test.ghost_counter"));
  EXPECT_FALSE(has("obs.test.ghost_gauge"));
  EXPECT_FALSE(has("obs.test.ghost_histogram"));
  EXPECT_FALSE(has("obs.test.idle_counter"));
  EXPECT_FALSE(has("obs.test.idle_gauge"));
  EXPECT_FALSE(has("obs.test.idle_histogram"));
  // A gauge set to 0 is a reading, and stays.
  EXPECT_TRUE(has("obs.test.zero_gauge"));
}

TEST(MetricsRegistryTest, SnapshotCarriesHistogramQuantiles) {
  auto& registry = MetricsRegistry::instance();
  auto& histogram = registry.histogram("obs.test.quantiles");
  histogram.reset();
  for (int i = 1; i <= 100; ++i) histogram.observe(static_cast<double>(i));
  const auto samples = registry.snapshot();
  const auto it = std::find_if(samples.begin(), samples.end(),
                               [](const MetricSample& sample) {
                                 return sample.name == "obs.test.quantiles";
                               });
  ASSERT_NE(it, samples.end());
  EXPECT_EQ(it->count, 100u);
  EXPECT_DOUBLE_EQ(it->min, 1.0);
  EXPECT_DOUBLE_EQ(it->max, 100.0);
  EXPECT_GT(it->p50, 0.0);
  EXPECT_LE(it->p50, it->p90);
  EXPECT_LE(it->p90, it->p99);
  EXPECT_LE(it->p99, 100.0);
}

TEST(MetricsRegistryTest, ResetAllClearsCountersGaugesAndHistograms) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("obs.test.reset.counter").add(5);
  registry.gauge("obs.test.reset.gauge").set(2.5);
  registry.histogram("obs.test.reset.histogram").observe(1.5);
  registry.reset_all();
  EXPECT_EQ(registry.counter("obs.test.reset.counter").value(), 0u);
  EXPECT_EQ(registry.gauge("obs.test.reset.gauge").value(), 0.0);
  EXPECT_EQ(registry.histogram("obs.test.reset.histogram").count(), 0u);
}

TEST(MetricsJsonTest, SerializesEveryKindAndParsesBack) {
  std::vector<MetricSample> samples;
  MetricSample counter;
  counter.name = "a.counter";
  counter.kind = MetricSample::Kind::kCounter;
  counter.value = 7.0;
  samples.push_back(counter);
  MetricSample histogram;
  histogram.name = "b.histogram";
  histogram.kind = MetricSample::Kind::kHistogram;
  histogram.count = 3;
  histogram.value = 2.0;
  histogram.sum = 6.0;
  histogram.min = 1.0;
  histogram.max = 3.0;
  histogram.p50 = 2.0;
  histogram.p90 = 3.0;
  histogram.p99 = 3.0;
  samples.push_back(histogram);
  const std::string json = metrics_to_json(samples);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":3"), std::string::npos);
}

// --- sinks ------------------------------------------------------------------

SpanRecord make_record() {
  SpanRecord record;
  record.name = "test.span";
  record.id = 42;
  record.parent_id = 7;
  record.depth = 1;
  record.tid = 3;
  record.start_ns = 1000;
  record.duration_ns = 2500;
  record.attrs.emplace_back("states", AttrValue{std::uint64_t{64}});
  record.attrs.emplace_back("residual", AttrValue{0.5});
  record.attrs.emplace_back("method", AttrValue{std::string("power")});
  return record;
}

TEST(AttrToStringTest, AllVariantAlternatives) {
  EXPECT_EQ(attr_to_string(AttrValue{std::uint64_t{9}}), "9");
  EXPECT_EQ(attr_to_string(AttrValue{std::string("x")}), "x");
  EXPECT_FALSE(attr_to_string(AttrValue{0.25}).empty());
}

TEST(JsonlFileSinkTest, WritesManifestThenOneParseableObjectPerLine) {
  const std::string path = test::unique_temp_path("trace.jsonl");
  std::remove(path.c_str());
  {
    JsonlFileSink sink(path);
    sink.on_span(make_record());
    sink.on_span(make_record());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (lines == 1) {
      // Run-provenance manifest precedes the first span.
      EXPECT_NE(line.find("\"manifest\":{"), std::string::npos);
      EXPECT_NE(line.find("\"git_sha\""), std::string::npos);
      EXPECT_NE(line.find("\"compiler\""), std::string::npos);
      continue;
    }
    EXPECT_NE(line.find("\"name\":\"test.span\""), std::string::npos);
    EXPECT_NE(line.find("\"tid\":3"), std::string::npos);
    EXPECT_NE(line.find("\"dur_ns\":2500"), std::string::npos);
    EXPECT_NE(line.find("\"method\":\"power\""), std::string::npos);
  }
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(JsonlFileSink("/nonexistent-dir/trace.jsonl"), IoError);
}

TEST(CollectingSinkTest, CountsWithoutKeepingWhenAsked) {
  CollectingSink sink(/*keep_records=*/false);
  sink.on_span(make_record());
  sink.on_span(make_record());
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_TRUE(sink.records().empty());
  sink.clear();
  EXPECT_EQ(sink.count(), 0u);
}

// --- tracer clock -----------------------------------------------------------

TEST(TracerTest, ClockIsMonotone) {
  const auto a = Tracer::now_ns();
  const auto b = Tracer::now_ns();
  EXPECT_LE(a, b);
}

// --- span LIFO discipline ---------------------------------------------------

// Ending a span that is not the innermost on its thread corrupts the
// parent/depth bookkeeping; debug builds refuse via assert().
TEST(SpanLifoDeathTest, OutOfOrderEndAssertsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "assert() is compiled out of NDEBUG builds";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Tracer::install(std::make_unique<CollectingSink>(false));
        auto outer = std::make_unique<Span>("outer");
        auto inner = std::make_unique<Span>("inner");
        outer->end();  // not the innermost open span on this thread
        inner->end();
      },
      "LIFO");
#endif
}

TEST(SpanLifoTest, InOrderHeapSpansAreFine) {
  Tracer::install(std::make_unique<CollectingSink>(false));
  auto outer = std::make_unique<Span>("outer");
  auto inner = std::make_unique<Span>("inner");
  inner->end();
  outer->end();
  Tracer::install(nullptr);
}

}  // namespace
}  // namespace stocdr::obs
