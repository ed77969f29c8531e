// Flight recorder (src/obs/live/): ring semantics, tracer integration,
// sentinel-triggered dumps from the robust harness, and the fatal-signal
// post-mortem path.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "markov/chain.hpp"
#include "obs/analyze/reader.hpp"
#include "obs/live/crash_handler.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject/faultinject.hpp"
#include "robust/robust_solver.hpp"
#include "test_util.hpp"

namespace stocdr::obs {
namespace {

SpanRecord make_span(std::uint64_t id, const char* name = "test.span") {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.start_ns = 100 * id;
  record.duration_ns = 50;
  return record;
}

std::string temp_path(const char* file) {
  return ::testing::TempDir() + "/" + file;
}

// --- ring semantics ---------------------------------------------------------

TEST(FlightRecorderTest, ParseRingCapacity) {
  EXPECT_EQ(parse_ring_capacity(nullptr), 0u);
  EXPECT_EQ(parse_ring_capacity(""), 0u);
  EXPECT_EQ(parse_ring_capacity("0"), 0u);
  EXPECT_EQ(parse_ring_capacity("junk"), 0u);
  EXPECT_EQ(parse_ring_capacity("256"), 256u);
  EXPECT_EQ(parse_ring_capacity("1"), FlightRecorder::kMinCapacity);
  EXPECT_EQ(parse_ring_capacity("999999999999"),
            FlightRecorder::kMaxCapacity);
}

TEST(FlightRecorderTest, RingKeepsTheMostRecentCapacitySpans) {
  FlightRecorder recorder(FlightRecorder::kMinCapacity);
  const std::size_t capacity = recorder.capacity();
  const std::size_t total = 3 * capacity + 5;
  for (std::size_t i = 1; i <= total; ++i) recorder.on_span(make_span(i));
  EXPECT_EQ(recorder.recorded(), total);

  const std::string path = temp_path("stocdr_ring_wrap.jsonl");
  EXPECT_EQ(recorder.dump(path), capacity);

  const analyze::TraceFile trace = analyze::read_trace_file(path);
  ASSERT_EQ(trace.spans.size(), capacity);
  // Oldest-to-newest, and exactly the last `capacity` ids.
  for (std::size_t i = 0; i < capacity; ++i) {
    EXPECT_EQ(trace.spans[i].id, total - capacity + 1 + i);
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, OversizedSpanIsRetrimmedWithoutAttrs) {
  FlightRecorder recorder(FlightRecorder::kMinCapacity);
  SpanRecord big = make_span(7);
  big.attrs.emplace_back(
      "payload", AttrValue{std::string(2 * FlightRecorder::kSlotBytes, 'x')});
  recorder.on_span(big);

  const std::string path = temp_path("stocdr_ring_trim.jsonl");
  EXPECT_EQ(recorder.dump(path), 1u);
  const analyze::TraceFile trace = analyze::read_trace_file(path);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].id, 7u);
  EXPECT_TRUE(trace.spans[0].attrs.empty());  // payload dropped, span kept
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, EmptyRingDumpIsManifestOnlyAndDiagnosable) {
  FlightRecorder recorder(FlightRecorder::kMinCapacity);
  const std::string path = temp_path("stocdr_ring_empty.jsonl");
  EXPECT_EQ(recorder.dump(path), 0u);
  const analyze::TraceFile trace = analyze::read_trace_file(path);
  EXPECT_TRUE(trace.has_manifest);
  EXPECT_TRUE(trace.spans.empty());
  const auto reason = analyze::empty_trace_reason(trace);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("no spans"), std::string::npos);
  std::remove(path.c_str());
}

// --- tracer integration -----------------------------------------------------

TEST(FlightRecorderTest, InstallTeesToTheWrappedDownstreamSink) {
  auto downstream = std::make_unique<CollectingSink>();
  CollectingSink* downstream_raw = downstream.get();
  Tracer::install(std::move(downstream));
  FlightRecorder* recorder =
      FlightRecorder::install(FlightRecorder::kMinCapacity);
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(FlightRecorder::active(), recorder);

  { Span span("test.install"); }

  EXPECT_EQ(recorder->recorded(), 1u);
  EXPECT_EQ(downstream_raw->count(), 1u);  // downstream still sees everything

  FlightRecorder::set_active(nullptr);
  Tracer::install(nullptr);
}

// --- sentinel-triggered dump ------------------------------------------------

TEST(FlightRecorderTest, SentinelTripDumpsTheRingIntoTheReport) {
  FlightRecorder recorder(FlightRecorder::kMinCapacity);
  recorder.on_span(make_span(1, "solver.progress"));
  FlightRecorder::set_active(&recorder);

  const markov::MarkovChain chain(test::birth_death_pt(40, 0.3, 0.2));
  const auto nan_injector = [](const ProgressEvent&) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  robust::RobustOptions options;
  options.ladder = {{robust::RungKind::kPower, 200, 0.9}};
  options.fault_injector = robust::FaultInjector(nan_injector);
  options.flight_dump_path = temp_path("stocdr_sentinel_dump.jsonl");
  const robust::RobustResult result =
      robust::solve_stationary_robust(chain, {}, options);
  FlightRecorder::set_active(nullptr);

  ASSERT_FALSE(result.report.rungs.empty());
  EXPECT_EQ(result.report.rungs[0].failure,
            robust::FailureCause::kNumericalFault);
  ASSERT_EQ(result.report.flight_dump_path, options.flight_dump_path);
  EXPECT_NE(result.report.to_json().find("\"flight_dump\":"),
            std::string::npos);
  EXPECT_NE(result.report.summary().find("flight dump"), std::string::npos);

  const analyze::TraceFile trace =
      analyze::read_trace_file(result.report.flight_dump_path);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].name, "solver.progress");
  std::remove(result.report.flight_dump_path.c_str());
}

TEST(FlightRecorderTest, SentinelTripDumpHoldsTheEventsThatExplainIt) {
  FlightRecorder::install(256);
  { Span span("test.before_solve"); }
  robust::fi::install_plan(robust::fi::FaultPlan::parse("solver:nan@3"));
  const markov::MarkovChain chain(test::birth_death_pt(40, 0.3, 0.2));
  robust::RobustOptions options;
  options.ladder = {{robust::RungKind::kPower, 200, 0.9}};
  options.flight_dump_path = test::unique_temp_path("sentinel_events.jsonl");
  const robust::RobustResult result =
      robust::solve_stationary_robust(chain, {}, options);
  robust::fi::install_plan(std::nullopt);
  FlightRecorder::set_active(nullptr);
  Tracer::install(nullptr);
  ASSERT_EQ(result.report.flight_dump_path, options.flight_dump_path);

  // In line order: the span that ran before the solve, then the injected
  // fault, then the rung failure it caused.
  std::ifstream in(options.flight_dump_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto index_of = [&lines](const std::string& needle) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(needle) != std::string::npos) return i;
    }
    return lines.size();
  };
  const std::size_t span = index_of("\"name\":\"test.before_solve\"");
  const std::size_t fault = index_of("\"event\":\"fault.fired\"");
  const std::size_t failure = index_of("\"event\":\"rung.failure\"");
  ASSERT_LT(failure, lines.size());
  EXPECT_LT(span, fault);
  EXPECT_LT(fault, failure);

  const analyze::TraceFile trace =
      analyze::read_trace_file(options.flight_dump_path);
  EXPECT_EQ(trace.skipped_lines, 0u);
  ASSERT_GE(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].kind, "fault.fired");
  EXPECT_EQ(trace.events[1].kind, "rung.failure");
  EXPECT_EQ(trace.events[1].severity, "warning");

  // Spans are ringed when they end, so the failing rung and the solve
  // around it are still open at the dump; their lines follow the ring, and
  // every event's span_id names a span line of the dump.
  std::map<std::uint64_t, const analyze::TraceSpan*> spans;
  for (const analyze::TraceSpan& s : trace.spans) spans[s.id] = &s;
  for (const analyze::TraceEvent& event : trace.events) {
    EXPECT_EQ(spans.count(event.span_id), 1u)
        << event.kind << " names span " << event.span_id;
  }
  ASSERT_EQ(spans.count(trace.events[1].span_id), 1u);
  const analyze::TraceSpan& rung = *spans[trace.events[1].span_id];
  EXPECT_EQ(rung.name, "robust.rung");
  const auto open =
      std::find_if(rung.attrs.begin(), rung.attrs.end(),
                   [](const auto& attr) { return attr.first == "open"; });
  ASSERT_NE(open, rung.attrs.end());
  EXPECT_EQ(open->second.string_or(""), "true");
  std::remove(options.flight_dump_path.c_str());
}

TEST(FlightRecorderTest, NoActiveRecorderMeansNoDump) {
  ASSERT_EQ(FlightRecorder::active(), nullptr);
  const markov::MarkovChain chain(test::birth_death_pt(40, 0.3, 0.2));
  const auto nan_injector = [](const ProgressEvent&) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  robust::RobustOptions options;
  options.ladder = {{robust::RungKind::kPower, 200, 0.9}};
  options.fault_injector = robust::FaultInjector(nan_injector);
  const robust::RobustResult result =
      robust::solve_stationary_robust(chain, {}, options);
  EXPECT_TRUE(result.report.flight_dump_path.empty());
}

// --- fatal-signal post-mortem -----------------------------------------------

#if defined(__unix__) || defined(__APPLE__)
TEST(FlightRecorderDeathTest, FatalSignalLeavesAReadableDump) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // SIGABRT, not SIGSEGV: sanitizer builds own the SIGSEGV disposition.
  const std::string dump = temp_path("stocdr_crash_dump.jsonl");
  std::remove(dump.c_str());

  EXPECT_EXIT(
      {
        static FlightRecorder recorder(FlightRecorder::kMinCapacity);
        recorder.on_span(make_span(11, "doomed.span"));
        FlightRecorder::set_active(&recorder);
        install_crash_handler(dump);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  const analyze::TraceFile trace = analyze::read_trace_file(dump);
  EXPECT_EQ(trace.crash_signal, SIGABRT);
  EXPECT_TRUE(trace.has_manifest);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].name, "doomed.span");
  std::remove(dump.c_str());
  std::remove((dump + ".backtrace").c_str());
}
#endif

}  // namespace
}  // namespace stocdr::obs
