// Events as the trace stream's second record kind: schema, ordering and
// span_id through JsonlFileSink, the bounded ring through FlightRecorder,
// the no-sink no-op, and thread safety (this binary also runs under TSan).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze/json_parse.hpp"
#include "obs/analyze/reader.hpp"
#include "obs/live/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace stocdr::obs::evt {
namespace {

using analyze::parse_json;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Forwards to a sink the test owns: the tracer retires installed sinks
/// instead of destroying them, and a JsonlFileSink commits its file only
/// when destroyed.
class ForwardingSink final : public TraceSink {
 public:
  explicit ForwardingSink(TraceSink& to) : to_(to) {}
  void on_span(const SpanRecord& span) override { to_.on_span(span); }
  void on_event(const EventRecord& event) override { to_.on_event(event); }

 private:
  TraceSink& to_;
};

class TraceEventTest : public ::testing::Test {
 protected:
  TraceEventTest() : path_(test::unique_temp_path("events.jsonl")) {}
  ~TraceEventTest() override {
    Tracer::install(nullptr);
    std::remove(path_.c_str());
  }

  std::string path_;
};

TEST_F(TraceEventTest, WritesSchemaCompleteOrderedRecords) {
  std::uint64_t span_id = 0;
  {
    JsonlFileSink file(path_);
    Tracer::install(std::make_unique<ForwardingSink>(file));
    {
      Span span("test.outer");
      span_id = span.id();
      emit("rung.failure", Severity::kWarning,
           {{"method", std::string("power")}, {"residual", 0.25}});
    }
    emit("health.mass_alarm", Severity::kAlarm,
         {{"negatives", std::uint64_t{3}}});
    emit("sweep.done");
    Tracer::install(nullptr);
  }

  const std::vector<std::string> lines = read_lines(path_);
  // Manifest, the event emitted inside the span, the span, two events.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("\"manifest\""), std::string::npos);

  const auto first = parse_json(lines[1]);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->find("event")->string_or(""), "rung.failure");
  EXPECT_EQ(first->find("severity")->string_or(""), "warning");
  EXPECT_GT(first->find("ts_ns")->uint_or(0), 0u);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_EQ(first->find("pid")->uint_or(0),
            static_cast<std::uint64_t>(::getpid()));
#endif
  // The innermost open span at emission.
  EXPECT_EQ(first->find("span_id")->uint_or(0), span_id);
  ASSERT_NE(first->find("attrs"), nullptr);
  EXPECT_EQ(first->find("attrs")->find("method")->string_or(""), "power");
  EXPECT_DOUBLE_EQ(first->find("attrs")->find("residual")->number_or(0),
                   0.25);

  const auto span = parse_json(lines[2]);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->find("name")->string_or(""), "test.outer");

  const auto second = parse_json(lines[3]);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->find("event")->string_or(""), "health.mass_alarm");
  EXPECT_EQ(second->find("severity")->string_or(""), "alarm");
  EXPECT_EQ(second->find("attrs")->find("negatives")->uint_or(0), 3u);
  EXPECT_EQ(second->find("span_id")->uint_or(1), 0u);  // no span open

  const auto third = parse_json(lines[4]);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->find("event")->string_or(""), "sweep.done");
  EXPECT_EQ(third->find("attrs"), nullptr);  // empty attrs are omitted
  // Wall timestamps are monotone within one thread.
  EXPECT_LE(first->find("ts_ns")->uint_or(0), third->find("ts_ns")->uint_or(0));

  // The reader keeps events apart from spans and counts nothing malformed.
  const analyze::TraceFile trace = analyze::read_trace_file(path_);
  EXPECT_EQ(trace.skipped_lines, 0u);
  ASSERT_EQ(trace.spans.size(), 1u);
  ASSERT_EQ(trace.events.size(), 3u);
  EXPECT_EQ(trace.events[0].kind, "rung.failure");
  EXPECT_EQ(trace.events[0].span_id, span_id);
  EXPECT_EQ(trace.events[1].severity, "alarm");
}

TEST_F(TraceEventTest, FlightRecorderRingKeepsBoundedRecent) {
  FlightRecorder* recorder =
      FlightRecorder::install(FlightRecorder::kMinCapacity);
  const std::size_t capacity = recorder->capacity();
  for (std::size_t i = 0; i < capacity + 2; ++i) {
    emit("tick." + std::to_string(i));
  }
  { Span span("test.last"); }
  FlightRecorder::set_active(nullptr);
  EXPECT_EQ(recorder->recorded(), capacity + 3);

  EXPECT_EQ(recorder->dump(path_), capacity);
  const std::vector<std::string> lines = read_lines(path_);
  ASSERT_EQ(lines.size(), capacity + 1);  // manifest + ring
  // Oldest three evicted; events and the span share the slots in order.
  EXPECT_NE(lines[1].find("\"tick.3\""), std::string::npos);
  EXPECT_NE(lines[capacity - 1].find("\"tick." + std::to_string(capacity + 1) +
                                     "\""),
            std::string::npos);
  EXPECT_NE(lines[capacity].find("\"test.last\""), std::string::npos);
}

TEST_F(TraceEventTest, EmitWithNoSinkIsANoOp) {
  auto owned = std::make_unique<CollectingSink>();
  CollectingSink* collecting = owned.get();
  Tracer::install(std::move(owned));
  emit("seen.event");
  Tracer::install(nullptr);
  emit("ignored.event");
  const std::vector<EventRecord> events = collecting->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "seen.event");
  EXPECT_EQ(collecting->count(), 0u);  // events stay apart from span count
}

TEST_F(TraceEventTest, ConcurrentEmittersProduceWholeLines) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  {
    JsonlFileSink file(path_);
    Tracer::install(std::make_unique<ForwardingSink>(file));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kPerThread; ++i) {
          emit("thread." + std::to_string(t), Severity::kInfo,
               {{"i", std::uint64_t{static_cast<std::uint64_t>(i)}}});
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    Tracer::install(nullptr);
  }

  const analyze::TraceFile trace = analyze::read_trace_file(path_);
  EXPECT_EQ(trace.skipped_lines, 0u);
  EXPECT_EQ(trace.events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace stocdr::obs::evt
