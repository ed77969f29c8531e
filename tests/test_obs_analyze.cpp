// The consumption half of the observability stack: JSON parsing, trace
// reading (including malformed-line tolerance and escaping round-trips
// through the emitting sink), per-name aggregation, the flamegraph/Chrome
// exporters, and BENCH artifact diffing.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze/analyze.hpp"
#include "obs/analyze/benchdiff.hpp"
#include "obs/analyze/json_parse.hpp"
#include "obs/analyze/reader.hpp"
#include "obs/manifest.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::obs::analyze {
namespace {

// --- JSON parser ------------------------------------------------------------

TEST(JsonParseTest, ScalarsAndNesting) {
  const auto doc = parse_json(
      R"({"a":1.5,"b":"x","c":[1,2,{"d":true}],"e":null,"f":-3e2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->find("a")->number_or(0), 1.5);
  EXPECT_EQ(doc->find("b")->string_or(""), "x");
  ASSERT_TRUE(doc->find("c")->is_array());
  EXPECT_EQ(doc->find("c")->array.size(), 3u);
  EXPECT_TRUE(doc->find("c")->array[2].find("d")->boolean);
  EXPECT_EQ(doc->find("e")->type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(doc->find("f")->number_or(0), -300.0);
}

TEST(JsonParseTest, StringEscapesIncludingSurrogatePairs) {
  const auto doc =
      parse_json(R"({"s":"a\n\t\"\\\u0041\u00b5\ud83d\ude00"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->string_or(""),
            "a\n\t\"\\A\xc2\xb5\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json(R"({"a":1)").has_value());
  EXPECT_FALSE(parse_json(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(parse_json(R"({"a":})").has_value());
  EXPECT_FALSE(parse_json(R"({"s":"\ud800"})").has_value());  // lone surrogate
  EXPECT_FALSE(parse_json("[1,2,").has_value());
  EXPECT_FALSE(parse_json("nul").has_value());
}

TEST(JsonParseTest, FindPathWalksNestedObjects) {
  const auto doc = parse_json(R"({"solve":{"seconds":2.5}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find_path("solve.seconds"), nullptr);
  EXPECT_DOUBLE_EQ(doc->find_path("solve.seconds")->number_or(0), 2.5);
  EXPECT_EQ(doc->find_path("solve.missing"), nullptr);
  EXPECT_EQ(doc->find_path("missing.seconds"), nullptr);
}

TEST(JsonParseTest, RoundTripsThroughToJsonText) {
  const std::string text =
      R"({"a":1.5,"b":"x\ny","c":[true,null],"d":{"e":2}})";
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  const auto again = parse_json(to_json_text(*doc));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(to_json_text(*doc), to_json_text(*again));
}

// --- trace reader -----------------------------------------------------------

/// Writes spans through the real JsonlFileSink, appends raw lines, and
/// reads everything back.
class TraceRoundTrip {
 public:
  TraceRoundTrip() : path_(test::unique_temp_path("obs_analyze_trace.jsonl")) {
    std::remove(path_.c_str());
  }
  ~TraceRoundTrip() { std::remove(path_.c_str()); }

  void write_spans(const std::vector<SpanRecord>& records) {
    JsonlFileSink sink(path_);
    for (const SpanRecord& record : records) sink.on_span(record);
  }

  void append_raw(const std::string& line) {
    std::ofstream out(path_, std::ios::app);
    out << line << '\n';
  }

  [[nodiscard]] TraceFile read() const { return read_trace_file(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SpanRecord span_record(const char* name, std::uint64_t id,
                       std::uint64_t parent, std::uint32_t depth,
                       std::uint64_t ts_ns, std::uint64_t dur_ns,
                       std::uint32_t tid = 1) {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent_id = parent;
  record.depth = depth;
  record.tid = tid;
  record.start_ns = ts_ns;
  record.duration_ns = dur_ns;
  return record;
}

TEST(TraceReaderTest, ReadsManifestAndSpansFromSinkOutput) {
  TraceRoundTrip fixture;
  SpanRecord root = span_record("solve", 1, 0, 0, 0, 5000);
  root.attrs.emplace_back("states", AttrValue{std::uint64_t{64}});
  root.attrs.emplace_back("residual", AttrValue{0.25});
  root.attrs.emplace_back("method", AttrValue{std::string("power")});
  fixture.write_spans({root, span_record("child", 2, 1, 1, 1000, 2000)});

  const TraceFile trace = fixture.read();
  EXPECT_TRUE(trace.has_manifest);
  EXPECT_NE(trace.manifest.find("git_sha"), nullptr);
  EXPECT_NE(trace.manifest.find("compiler"), nullptr);
  EXPECT_NE(trace.manifest.find("date_utc"), nullptr);
  EXPECT_EQ(trace.skipped_lines, 0u);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "solve");
  EXPECT_EQ(trace.spans[0].dur_ns, 5000u);
  EXPECT_EQ(trace.spans[1].parent, 1u);
  ASSERT_EQ(trace.spans[0].attrs.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.spans[0].attrs[0].second.number_or(0), 64.0);
  EXPECT_EQ(trace.spans[0].attrs[2].second.string_or(""), "power");
}

TEST(TraceReaderTest, SkipsMalformedAndTruncatedLinesWithCount) {
  TraceRoundTrip fixture;
  fixture.write_spans({span_record("solve", 1, 0, 0, 0, 5000)});
  fixture.append_raw("{\"name\":\"trunc");       // killed mid-write
  fixture.append_raw("not json at all");
  fixture.append_raw("[1,2,3]");                 // valid JSON, not a span
  fixture.append_raw("{\"id\":9}");              // span missing a name
  fixture.append_raw("");                        // blank: ignored, not counted

  const TraceFile trace = fixture.read();
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 4u);
  EXPECT_EQ(trace.total_lines, 6u);  // manifest + span + 4 bad
}

TEST(TraceReaderTest, RoundTripsHostileAttributeStrings) {
  // Control bytes, quotes, and ill-formed UTF-8 must survive the
  // sink -> escape -> parse round trip without invalidating the line.
  TraceRoundTrip fixture;
  SpanRecord record = span_record("nasty", 1, 0, 0, 0, 100);
  record.attrs.emplace_back(
      "label", AttrValue{std::string("a\x01\"quote\"\n\xff tail")});
  record.attrs.emplace_back("utf8", AttrValue{std::string("\xc2\xb5s")});
  fixture.write_spans({record});

  const TraceFile trace = fixture.read();
  EXPECT_EQ(trace.skipped_lines, 0u);
  ASSERT_EQ(trace.spans.size(), 1u);
  const auto& attrs = trace.spans[0].attrs;
  ASSERT_EQ(attrs.size(), 2u);
  // The invalid 0xff byte came back as U+FFFD; everything else survived.
  EXPECT_EQ(attrs[0].second.string_or(""),
            "a\x01\"quote\"\n\xef\xbf\xbd tail");
  EXPECT_EQ(attrs[1].second.string_or(""), "\xc2\xb5s");
}

TEST(TraceReaderTest, ThrowsOnMissingFile) {
  EXPECT_THROW(read_trace_file("/nonexistent-dir/trace.jsonl"), IoError);
}

// --- aggregation and exporters ----------------------------------------------

/// solve(10ms) -> cycle(6ms) -> smooth(2ms); plus a second cycle(3ms).
std::vector<TraceSpan> synthetic_tree() {
  TraceFile trace;
  TraceRoundTrip fixture;
  fixture.write_spans({
      span_record("solve", 1, 0, 0, 0, 10'000'000),
      span_record("cycle", 2, 1, 1, 1'000'000, 6'000'000),
      span_record("smooth", 3, 2, 2, 1'500'000, 2'000'000),
      span_record("cycle", 4, 1, 1, 7'000'000, 3'000'000),
  });
  return fixture.read().spans;
}

TEST(AggregateTest, CountsTotalsSelfTimesAndQuantiles) {
  const auto aggregates = aggregate_spans(synthetic_tree());
  ASSERT_EQ(aggregates.size(), 3u);
  // Sorted by total descending: solve (10ms), cycle (9ms), smooth (2ms).
  EXPECT_EQ(aggregates[0].name, "solve");
  EXPECT_EQ(aggregates[0].count, 1u);
  EXPECT_EQ(aggregates[0].total_ns, 10'000'000u);
  EXPECT_EQ(aggregates[0].self_ns, 1'000'000u);  // minus both cycles
  EXPECT_EQ(aggregates[1].name, "cycle");
  EXPECT_EQ(aggregates[1].count, 2u);
  EXPECT_EQ(aggregates[1].total_ns, 9'000'000u);
  EXPECT_EQ(aggregates[1].self_ns, 7'000'000u);  // minus smooth under one
  EXPECT_EQ(aggregates[1].max_ns, 6'000'000u);
  EXPECT_GE(aggregates[1].p50_ns, 3'000'000u);
  EXPECT_LE(aggregates[1].p99_ns, 6'000'000u);
  EXPECT_EQ(aggregates[2].name, "smooth");
  EXPECT_EQ(aggregates[2].self_ns, 2'000'000u);
}

TEST(FoldedStackTest, EmitsRootToLeafPathsWeightedBySelfMicros) {
  const std::string folded = to_folded_stacks(synthetic_tree());
  // Sorted lexicographically; weights are self time in microseconds.
  EXPECT_EQ(folded,
            "solve 1000\n"
            "solve;cycle 7000\n"
            "solve;cycle;smooth 2000\n");
}

TEST(FoldedStackTest, PrefixesThreadsWhenMultipleTidsPresent) {
  TraceRoundTrip fixture;
  fixture.write_spans({
      span_record("a", 1, 0, 0, 0, 2'000'000, /*tid=*/1),
      span_record("b", 2, 0, 0, 0, 3'000'000, /*tid=*/2),
  });
  const std::string folded = to_folded_stacks(fixture.read().spans);
  EXPECT_EQ(folded,
            "thread-1;a 2000\n"
            "thread-2;b 3000\n");
}

TEST(ChromeTraceTest, ProducesValidTraceEventJson) {
  TraceRoundTrip fixture;
  SpanRecord root = span_record("solve", 1, 0, 0, 2000, 10'000'000);
  root.attrs.emplace_back("states", AttrValue{std::uint64_t{64}});
  root.attrs.emplace_back("method", AttrValue{std::string("mg")});
  fixture.write_spans({root});
  const TraceFile trace = fixture.read();

  const std::string chrome = to_chrome_trace(trace);
  const auto doc = parse_json(chrome);
  ASSERT_TRUE(doc.has_value()) << chrome;
  ASSERT_NE(doc->find("traceEvents"), nullptr);
  ASSERT_EQ(doc->find("traceEvents")->array.size(), 1u);
  const JsonValue& event = doc->find("traceEvents")->array[0];
  EXPECT_EQ(event.find("ph")->string_or(""), "X");
  EXPECT_EQ(event.find("name")->string_or(""), "solve");
  EXPECT_DOUBLE_EQ(event.find("ts")->number_or(0), 2.0);       // us
  EXPECT_DOUBLE_EQ(event.find("dur")->number_or(0), 10'000.0); // us
  EXPECT_DOUBLE_EQ(event.find("args")->find("states")->number_or(0), 64.0);
  EXPECT_EQ(event.find("args")->find("method")->string_or(""), "mg");
  // The run manifest rides along as metadata.
  ASSERT_NE(doc->find("metadata"), nullptr);
  EXPECT_NE(doc->find("metadata")->find("git_sha"), nullptr);
}

// --- cross-process merge (fleet traces) -------------------------------------

TraceSpan make_span(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint32_t depth, std::uint32_t pid) {
  TraceSpan span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.depth = depth;
  span.tid = 1;
  span.pid = pid;
  span.ts_ns = 1000;
  span.dur_ns = 500;
  return span;
}

/// Parent process (pid 100) spawned a worker (pid 200) whose root span
/// carries the cross-process parent reference.  Span ids deliberately
/// collide across the two files.
std::vector<TraceFile> fleet_traces() {
  TraceFile parent;
  parent.spans.push_back(make_span("sweep.fleet", 1, 0, 0, 100));
  parent.total_lines = 1;

  TraceFile worker;
  TraceSpan shard = make_span("sweep.shard", 1, 0, 0, 200);
  shard.remote_parent_pid = 100;
  shard.remote_parent_id = 1;
  worker.spans.push_back(shard);
  worker.spans.push_back(make_span("solve", 2, 1, 1, 200));
  worker.total_lines = 2;

  std::vector<TraceFile> files;
  files.push_back(std::move(parent));
  files.push_back(std::move(worker));
  return files;
}

TEST(MergeTracesTest, RenumbersIdsAndStitchesRemoteParents) {
  const TraceFile merged = merge_traces(fleet_traces());
  ASSERT_EQ(merged.spans.size(), 3u);
  EXPECT_EQ(merged.total_lines, 3u);

  const TraceSpan& fleet = merged.spans[0];
  const TraceSpan& shard = merged.spans[1];
  const TraceSpan& solve = merged.spans[2];
  EXPECT_EQ(fleet.name, "sweep.fleet");
  EXPECT_EQ(shard.name, "sweep.shard");

  // Colliding ids from different processes were renumbered apart...
  EXPECT_NE(fleet.id, shard.id);
  EXPECT_NE(shard.id, solve.id);
  // ...with intra-process parent links remapped consistently...
  EXPECT_EQ(solve.parent, shard.id);
  // ...and the worker root stitched under the spawning span.
  EXPECT_EQ(shard.parent, fleet.id);
  EXPECT_EQ(shard.depth, fleet.depth + 1);
  EXPECT_EQ(solve.depth, shard.depth + 1);  // subtree shifted along

  ASSERT_EQ(merged.flows.size(), 1u);
  EXPECT_EQ(merged.flows[0].from_index, 0u);
  EXPECT_EQ(merged.flows[0].to_index, 1u);
}

TEST(MergeTracesTest, UnresolvableRemoteParentLeavesSpanAsRoot) {
  std::vector<TraceFile> files = fleet_traces();
  files[1].spans[0].remote_parent_id = 999;  // no such span anywhere
  const TraceFile merged = merge_traces(std::move(files));
  ASSERT_EQ(merged.spans.size(), 3u);
  EXPECT_EQ(merged.spans[1].parent, 0u);  // stays a root
  EXPECT_TRUE(merged.flows.empty());
}

TEST(ChromeTraceTest, MergedTraceCarriesRealPidsAndFlowArrows) {
  const TraceFile merged = merge_traces(fleet_traces());
  const std::string chrome = to_chrome_trace(merged);
  const auto doc = parse_json(chrome);
  ASSERT_TRUE(doc.has_value()) << chrome;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 3 duration events + one s/f flow pair.
  ASSERT_EQ(events->array.size(), 5u);
  bool saw_start = false;
  bool saw_finish = false;
  bool saw_worker_pid = false;
  for (const JsonValue& event : events->array) {
    const std::string ph(event.find("ph")->string_or(""));
    if (ph == "s") {
      saw_start = true;
      EXPECT_DOUBLE_EQ(event.find("pid")->number_or(0), 100.0);
    } else if (ph == "f") {
      saw_finish = true;
      EXPECT_EQ(event.find("bp")->string_or(""), "e");
      EXPECT_DOUBLE_EQ(event.find("pid")->number_or(0), 200.0);
    } else if (event.find("pid")->number_or(0) == 200.0) {
      saw_worker_pid = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_finish);
  EXPECT_TRUE(saw_worker_pid);
}

// --- manifest ---------------------------------------------------------------

TEST(ManifestTest, CurrentManifestIsPopulatedAndSerializes) {
  const RunManifest manifest = current_manifest();
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_FALSE(manifest.date_utc.empty());
  EXPECT_FALSE(manifest.hostname.empty());
  const auto doc = parse_json(manifest_to_json(manifest));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("compiler")->string_or(""), manifest.compiler);
  EXPECT_EQ(doc->find("config_hash"), nullptr);  // empty -> omitted
}

TEST(ManifestTest, Fnv1aHexIsStableAndDiscriminates) {
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("stocdr"), fnv1a_hex("stocdr"));
  EXPECT_NE(fnv1a_hex("stocdr"), fnv1a_hex("stocdR"));
}

// --- bench-diff -------------------------------------------------------------

/// A minimal BENCH artifact; seconds/matvecs are scaled by `slow` to
/// synthesize regressions.
JsonValue artifact(double slow = 1.0, const char* config_hash = "abc") {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      R"({"name":"case","manifest":{"config_hash":"%s","compiler":"gcc"},)"
      R"("states":1000,"transitions":5000,"ber":1e-9,)"
      R"("matrix_form_seconds":%.6f,)"
      R"("solve":{"seconds":%.6f,"iterations":%d,"matvecs":%d},)"
      R"("peak_rss_bytes":1000000})",
      config_hash, 0.5 * slow, 2.0 * slow, static_cast<int>(10 * slow),
      static_cast<int>(100 * slow));
  auto doc = parse_json(buffer);
  EXPECT_TRUE(doc.has_value());
  return *doc;
}

TEST(BenchDiffTest, IdenticalArtifactsDoNotRegress) {
  const BenchDiffReport report =
      diff_bench_artifacts(artifact(), artifact(), {});
  EXPECT_FALSE(report.regressed);
  // Unprofiled, untracked artifacts carry exactly two notes: the explicit
  // statements that the instructions-retired gate fell back to wall-clock
  // seconds and that the bytes-per-state gate was skipped.
  ASSERT_EQ(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("instructions-retired gate unavailable"),
            std::string::npos);
  EXPECT_NE(report.notes[1].find("memory telemetry absent"),
            std::string::npos);
  for (const MetricDelta& delta : report.deltas) {
    if (delta.present) {
      EXPECT_DOUBLE_EQ(delta.change, 0.0);
    }
  }
}

TEST(BenchDiffTest, DetectsInjectedSlowdown) {
  const BenchDiffReport report =
      diff_bench_artifacts(artifact(), artifact(2.0), {});
  EXPECT_TRUE(report.regressed);
  bool solve_seconds_flagged = false;
  for (const MetricDelta& delta : report.deltas) {
    if (delta.key == "solve.seconds") {
      solve_seconds_flagged = delta.regressed;
      EXPECT_NEAR(delta.change, 1.0, 1e-9);  // +100%
    }
  }
  EXPECT_TRUE(solve_seconds_flagged);
  EXPECT_NE(report.render().find("REGRESSED"), std::string::npos);
}

TEST(BenchDiffTest, ImprovementAndThresholdHeadroomPass) {
  // 5% slower with a 10% threshold: reported, not regressed.
  JsonValue slightly = artifact();
  const BenchDiffReport faster =
      diff_bench_artifacts(artifact(2.0), artifact(), {});
  EXPECT_FALSE(faster.regressed);
  const BenchDiffReport headroom =
      diff_bench_artifacts(artifact(), artifact(1.05), {});
  EXPECT_FALSE(headroom.regressed);
}

TEST(BenchDiffTest, MemoryIsReportOnly) {
  auto old_doc = artifact();
  auto new_doc = artifact();
  // Triple the memory: must be reported but never gate.
  for (auto& [key, value] : new_doc.object) {
    if (key == "peak_rss_bytes") value.number = 3000000;
  }
  const BenchDiffReport report =
      diff_bench_artifacts(old_doc, new_doc, {});
  EXPECT_FALSE(report.regressed);
  bool seen = false;
  for (const MetricDelta& delta : report.deltas) {
    if (delta.key == "peak_rss_bytes") {
      seen = true;
      EXPECT_FALSE(delta.gating);
      EXPECT_NEAR(delta.change, 2.0, 1e-9);
    }
  }
  EXPECT_TRUE(seen);
}

TEST(BenchDiffTest, MinSecondsFloorsMicroTimings) {
  BenchDiffOptions options;
  options.min_seconds = 10.0;  // both time baselines are below the floor
  const BenchDiffReport report =
      diff_bench_artifacts(artifact(), artifact(2.0), options);
  for (const MetricDelta& delta : report.deltas) {
    if (delta.key == "solve.seconds" || delta.key == "matrix_form_seconds") {
      EXPECT_FALSE(delta.gating);
      EXPECT_FALSE(delta.regressed);
    }
  }
  // Work counts still gate: the 2x iterations/matvecs regression holds.
  EXPECT_TRUE(report.regressed);
}

TEST(BenchDiffTest, NotesConfigDrift) {
  const BenchDiffReport report = diff_bench_artifacts(
      artifact(1.0, "abc"), artifact(1.0, "def"), {});
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("config_hash"), std::string::npos);
}

/// An artifact whose perf section carries an instructions-retired total.
JsonValue profiled_artifact(double instructions) {
  JsonValue doc = artifact();
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                R"({"enabled":true,"available":true,"source":"perf_event_hw",)"
                R"("total":{"instructions":%.0f}})",
                instructions);
  auto perf = parse_json(buffer);
  EXPECT_TRUE(perf.has_value());
  doc.object.emplace_back("perf", *perf);
  return doc;
}

TEST(BenchDiffTest, InstructionCountGatesAtTighterThreshold) {
  // +5% instructions: inside the +10% wall-clock threshold but past the
  // +3% counter threshold — must regress on the counter alone.
  const BenchDiffReport report = diff_bench_artifacts(
      profiled_artifact(1e9), profiled_artifact(1.05e9), {});
  EXPECT_TRUE(report.regressed);
  bool flagged = false;
  for (const MetricDelta& delta : report.deltas) {
    if (delta.key == "perf.total.instructions") {
      flagged = delta.regressed;
      EXPECT_TRUE(delta.gating);
      EXPECT_NEAR(delta.change, 0.05, 1e-9);
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(BenchDiffTest, InstructionCountHeadroomPasses) {
  const BenchDiffReport report = diff_bench_artifacts(
      profiled_artifact(1e9), profiled_artifact(1.02e9), {});
  EXPECT_FALSE(report.regressed);
}

TEST(BenchDiffTest, InstructionThresholdIsConfigurable) {
  BenchDiffOptions options;
  options.instr_threshold = 0.01;
  const BenchDiffReport report = diff_bench_artifacts(
      profiled_artifact(1e9), profiled_artifact(1.02e9), options);
  EXPECT_TRUE(report.regressed);
}

TEST(BenchDiffTest, CounterAbsentFromOneArtifactNotesDriftAndSkipsGate) {
  // Baseline profiled, candidate not (or vice versa): the counter gate is
  // skipped with two explicit notes — coverage drift plus the seconds
  // fallback — and never regresses on the missing metric.
  const BenchDiffReport report =
      diff_bench_artifacts(profiled_artifact(1e9), artifact(), {});
  EXPECT_FALSE(report.regressed);
  bool drift_note = false;
  bool fallback_note = false;
  for (const std::string& note : report.notes) {
    if (note.find("perf.total.instructions present in only one artifact") !=
        std::string::npos) {
      drift_note = note.find("coverage drift") != std::string::npos;
    }
    if (note.find("instructions-retired gate unavailable") !=
        std::string::npos) {
      fallback_note = true;
    }
  }
  EXPECT_TRUE(drift_note);
  EXPECT_TRUE(fallback_note);
}

TEST(BenchDiffTest, GatingMetricInOneArtifactOnlyNotesCoverageDrift) {
  JsonValue stripped = artifact();
  for (auto& [key, value] : stripped.object) {
    if (key == "solve") {
      std::erase_if(value.object, [](const auto& member) {
        return member.first == "matvecs";
      });
    }
  }
  const BenchDiffReport report =
      diff_bench_artifacts(artifact(), stripped, {});
  bool noted = false;
  for (const std::string& note : report.notes) {
    if (note.find("solve.matvecs present in only one artifact") !=
            std::string::npos &&
        note.find("gating-metric coverage drift") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
  // Missing on one side is drift, not a regression.
  EXPECT_FALSE(report.regressed);
}

/// An artifact whose mem section carries a bytes-per-state footprint.
JsonValue tracked_artifact(double bytes_per_state) {
  JsonValue doc = artifact();
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                R"({"enabled":true,"available":true,)"
                R"("peak_live_bytes":50000000,"bytes_per_state":%.1f})",
                bytes_per_state);
  auto mem = parse_json(buffer);
  EXPECT_TRUE(mem.has_value());
  doc.object.emplace_back("mem", *mem);
  return doc;
}

TEST(BenchDiffTest, BytesPerStateGatesAtWallClockThreshold) {
  // +20% heap per state: past the +10% default threshold even though every
  // time metric is identical.
  const BenchDiffReport report =
      diff_bench_artifacts(tracked_artifact(800.0), tracked_artifact(960.0),
                           {});
  EXPECT_TRUE(report.regressed);
  bool flagged = false;
  for (const MetricDelta& delta : report.deltas) {
    if (delta.key == "mem.bytes_per_state") flagged = delta.regressed;
  }
  EXPECT_TRUE(flagged);
  // Within the threshold: no regression.
  EXPECT_FALSE(diff_bench_artifacts(tracked_artifact(800.0),
                                    tracked_artifact(840.0), {})
                   .regressed);
}

TEST(BenchDiffTest, MemSectionAbsentFromOneArtifactNotesDriftOnce) {
  const BenchDiffReport report =
      diff_bench_artifacts(tracked_artifact(800.0), artifact(), {});
  EXPECT_FALSE(report.regressed);
  std::size_t mem_notes = 0;
  for (const std::string& note : report.notes) {
    if (note.find("memory telemetry absent") != std::string::npos)
      ++mem_notes;
  }
  // Two mem metrics are missing, but the hint is emitted exactly once.
  EXPECT_EQ(mem_notes, 1u);
}

}  // namespace
}  // namespace stocdr::obs::analyze
