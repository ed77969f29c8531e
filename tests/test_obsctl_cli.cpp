// End-to-end CLI contract of stocdr-obsctl: exit codes and diagnostics for
// healthy, empty, and missing inputs.  The binary path is injected by CMake
// as STOCDR_OBSCTL_PATH.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace {

std::string temp_path(const std::string& file) {
  return ::testing::TempDir() + "/" + file;
}

/// Runs obsctl with `args`, captures stdout+stderr into `output`, returns
/// the exit code (-1 if the shell failed).
int run_obsctl(const std::string& args, std::string* output = nullptr) {
  return stocdr::test::run_command(
      std::string(STOCDR_OBSCTL_PATH) + " " + args, output);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

const char kValidTrace[] =
    "{\"manifest\":{\"git_sha\":\"abc\",\"build_type\":\"Release\"}}\n"
    "{\"name\":\"solve\",\"id\":1,\"parent\":0,\"depth\":0,\"tid\":1,"
    "\"ts_ns\":0,\"dur_ns\":1000}\n"
    "{\"name\":\"mg.cycle\",\"id\":2,\"parent\":1,\"depth\":1,\"tid\":1,"
    "\"ts_ns\":100,\"dur_ns\":500}\n";

// --- usage errors (exit 2) --------------------------------------------------

TEST(ObsctlCliTest, UnknownCommandExitsTwo) {
  for (const char* command : {"frobnicate", "fleet"}) {
    std::string output;
    EXPECT_EQ(run_obsctl(command, &output), 2) << command;
    EXPECT_NE(output.find("unknown command"), std::string::npos) << command;
    EXPECT_NE(output.find("usage:"), std::string::npos) << command;
  }
}

TEST(ObsctlCliTest, NoArgumentsExitsTwo) {
  EXPECT_EQ(run_obsctl(""), 2);
}

TEST(ObsctlCliTest, HelpExitsZero) {
  std::string output;
  EXPECT_EQ(run_obsctl("--help", &output), 0);
  EXPECT_NE(output.find("summarize"), std::string::npos);
  EXPECT_NE(output.find("health"), std::string::npos);
  EXPECT_NE(output.find("watch"), std::string::npos);
}

// --- empty/missing traces (exit 3) ------------------------------------------

TEST(ObsctlCliTest, MissingTraceExitsThreeWithDiagnostic) {
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + temp_path("no_such_trace.jsonl"),
                       &output),
            3);
  EXPECT_NE(output.find("was tracing enabled"), std::string::npos);
}

TEST(ObsctlCliTest, EmptyTraceExitsThreeOnEveryReader) {
  const std::string path = temp_path("stocdr_empty_trace.jsonl");
  write_file(path, "");
  for (const char* cmd : {"summarize", "flame", "chrome"}) {
    std::string output;
    EXPECT_EQ(run_obsctl(std::string(cmd) + " " + path, &output), 3) << cmd;
    EXPECT_NE(output.find("trace is empty"), std::string::npos) << cmd;
  }
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, MalformedOnlyTraceExitsThree) {
  const std::string path = temp_path("stocdr_malformed_trace.jsonl");
  write_file(path, "not json\nalso not json\n");
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + path, &output), 3);
  EXPECT_NE(output.find("malformed"), std::string::npos);
  std::remove(path.c_str());
}

// --- valid traces (exit 0) --------------------------------------------------

TEST(ObsctlCliTest, ValidTraceSummarizes) {
  const std::string path = temp_path("stocdr_valid_trace.jsonl");
  write_file(path, kValidTrace);
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + path, &output), 0);
  EXPECT_NE(output.find("spans: 2"), std::string::npos);
  EXPECT_NE(output.find("mg.cycle"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, CrashMarkerIsSurfaced) {
  const std::string path = temp_path("stocdr_crash_trace.jsonl");
  write_file(path, std::string("{\"crash\":{\"signal\":6}}\n") + kValidTrace);
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + path, &output), 0);
  EXPECT_NE(output.find("crash: signal 6"), std::string::npos);
  std::remove(path.c_str());
}

// --- health / watch ---------------------------------------------------------

const char kHealthyOm[] =
    "# TYPE stocdr_export_heartbeat gauge\n"
    "stocdr_export_heartbeat 4\n"
    "# TYPE stocdr_mg_level_rho summary\n"
    "stocdr_mg_level_rho{quantile=\"0.9\"} 0.35\n"
    "stocdr_mg_level_rho_count 12\n"
    "# TYPE stocdr_health_mass_audits counter\n"
    "stocdr_health_mass_audits_total 8\n"
    "# EOF\n";

TEST(ObsctlCliTest, HealthOnCleanSnapshotExitsZero) {
  const std::string path = temp_path("stocdr_health_ok.om");
  write_file(path, kHealthyOm);
  std::string output;
  EXPECT_EQ(run_obsctl("health " + path, &output), 0);
  EXPECT_NE(output.find("health: ok"), std::string::npos);
  EXPECT_NE(output.find("0.35"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, HealthAlarmExitsOne) {
  const std::string path = temp_path("stocdr_health_alarm.om");
  write_file(path,
             "stocdr_health_mass_alarms_total 2\n"
             "# EOF\n");
  std::string output;
  EXPECT_EQ(run_obsctl("health " + path, &output), 1);
  EXPECT_NE(output.find("HEALTH ALARM"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, HealthRejectsIncompleteSnapshot) {
  const std::string path = temp_path("stocdr_health_torn.om");
  write_file(path, "stocdr_export_heartbeat 1\n");  // no "# EOF"
  std::string output;
  EXPECT_EQ(run_obsctl("health " + path, &output), 2);
  EXPECT_NE(output.find("EOF"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, HealthMissingFileExitsTwo) {
  EXPECT_EQ(run_obsctl("health " + temp_path("no_such.om")), 2);
}

TEST(ObsctlCliTest, WatchPrintsHeartbeatAndExitsZero) {
  const std::string path = temp_path("stocdr_watch.om");
  write_file(path, kHealthyOm);
  std::string output;
  EXPECT_EQ(run_obsctl("watch " + path + " --count 2 --interval 10", &output),
            0);
  EXPECT_NE(output.find("heartbeat=4"), std::string::npos);
  // Second poll sees the same heartbeat: flagged stale.
  EXPECT_NE(output.find("stale"), std::string::npos);
  std::remove(path.c_str());
}

// --- summarize --json -------------------------------------------------------

TEST(ObsctlCliTest, SummarizeJsonEmitsMachineReadableAggregates) {
  const std::string path = temp_path("stocdr_json_trace.jsonl");
  write_file(path, kValidTrace);
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + path + " --json", &output), 0);
  EXPECT_EQ(output.front(), '[');
  EXPECT_NE(output.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(output.find("\"total_ns\":1000"), std::string::npos);
  EXPECT_NE(output.find("\"self_ns\":500"), std::string::npos);
  // The human table's header must not leak into the JSON output.
  EXPECT_EQ(output.find("spans:"), std::string::npos);
  std::remove(path.c_str());
}

// --- perf / roofline --------------------------------------------------------

/// A BENCH artifact with a perf section, as bench/common.hpp emits under
/// STOCDR_PERF=1 on a host with working hardware counters.
const char kProfiledArtifact[] =
    R"({"name":"case","solve":{"seconds":2.0},)"
    R"("perf":{"enabled":true,"available":true,"source":"perf_event_hw",)"
    R"("total":{"regions":1,"wall_seconds":2.0,"cycles":4000000,)"
    R"("instructions":8000000,"ipc":2.0,"cache_miss_rate":0.125,)"
    R"("task_clock_ns":2000000000},)"
    R"("spans":{"solve":{"regions":1,"wall_seconds":2.0,)"
    R"("instructions":8000000,"cycles":4000000,"ipc":2.0}},)"
    R"("kernels":{"spmv":{"calls":10,"bytes":1000000,"flops":160000,)"
    R"("seconds":0.001,"arithmetic_intensity":0.16,"achieved_gbps":1.0,)"
    R"("gflops":0.16}}}})";

TEST(ObsctlCliTest, PerfRendersCounterTable) {
  const std::string path = temp_path("stocdr_perf_bench.json");
  write_file(path, kProfiledArtifact);
  std::string output;
  EXPECT_EQ(run_obsctl("perf " + path, &output), 0);
  EXPECT_NE(output.find("perf_event_hw"), std::string::npos);
  EXPECT_NE(output.find("(total)"), std::string::npos);
  EXPECT_NE(output.find("solve"), std::string::npos);
  EXPECT_NE(output.find("8M"), std::string::npos);  // instructions
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, RooflineRendersKernelTable) {
  const std::string path = temp_path("stocdr_roofline_bench.json");
  write_file(path, kProfiledArtifact);
  std::string output;
  EXPECT_EQ(run_obsctl("roofline " + path, &output), 0);
  EXPECT_NE(output.find("spmv"), std::string::npos);
  EXPECT_NE(output.find("flop/B"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, RooflinePeakGbpsAddsPercentColumn) {
  const std::string path = temp_path("stocdr_roofline_peak.json");
  write_file(path, kProfiledArtifact);
  std::string output;
  EXPECT_EQ(run_obsctl("roofline " + path + " --peak-gbps 10", &output), 0);
  EXPECT_NE(output.find("%peak"), std::string::npos);
  EXPECT_NE(output.find("10.0%"), std::string::npos);  // 1.0 of 10 GB/s
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, PerfWithoutSectionExitsThreeWithHint) {
  const std::string path = temp_path("stocdr_unprofiled_bench.json");
  write_file(path, R"({"name":"case","solve":{"seconds":2.0}})");
  for (const char* cmd : {"perf", "roofline"}) {
    std::string output;
    EXPECT_EQ(run_obsctl(std::string(cmd) + " " + path, &output), 3) << cmd;
    EXPECT_NE(output.find("STOCDR_PERF=1"), std::string::npos) << cmd;
  }
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, PerfOnMissingOrInvalidFileExitsTwo) {
  EXPECT_EQ(run_obsctl("perf " + temp_path("no_such_bench.json")), 2);
  const std::string path = temp_path("stocdr_invalid_bench.json");
  write_file(path, "not json at all");
  EXPECT_EQ(run_obsctl("roofline " + path), 2);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, PerfMarksUnavailableCounters) {
  const std::string path = temp_path("stocdr_fallback_bench.json");
  write_file(path,
             R"({"perf":{"enabled":true,"available":false,"source":"rusage",)"
             R"("total":{"regions":1,"wall_seconds":1.0,)"
             R"("task_clock_ns":1000000000},"spans":{},"kernels":{}}})");
  std::string output;
  EXPECT_EQ(run_obsctl("perf " + path, &output), 0);
  EXPECT_NE(output.find("ABSENT"), std::string::npos);
  EXPECT_NE(output.find("perf_event_paranoid"), std::string::npos);
  std::remove(path.c_str());
}

// --- one trace per reader ---------------------------------------------------

TEST(ObsctlCliTest, SecondTracePathIsAUsageError) {
  const std::string present = temp_path("stocdr_second_path.jsonl");
  write_file(present, kValidTrace);
  const std::string absent = temp_path("stocdr_second_path_absent.jsonl");
  for (const char* cmd : {"summarize", "flame", "chrome", "events"}) {
    std::string output;
    EXPECT_EQ(run_obsctl(std::string(cmd) + " " + present + " " + present,
                         &output),
              2)
        << cmd;
    EXPECT_NE(output.find("usage:"), std::string::npos) << cmd;
    // A missing first path does not turn the second into a fallback.
    EXPECT_EQ(run_obsctl(std::string(cmd) + " " + absent + " " + present), 2)
        << cmd;
  }
  std::remove(present.c_str());
}

// --- numeric flags ----------------------------------------------------------

TEST(ObsctlCliTest, MalformedNumericFlagValuesExitTwoNamingTheFlag) {
  const std::string path = temp_path("stocdr_flag_values_bench.json");
  write_file(path, kProfiledArtifact);
  const std::string diff = "bench-diff " + path + " " + path;
  const std::string roofline = "roofline " + path;
  const struct {
    std::string args;
    const char* flag;
  } cases[] = {
      {diff + " --min-seconds abc", "--min-seconds"},
      {diff + " --min-seconds 0.05x", "--min-seconds"},
      {diff + " --min-seconds -1", "--min-seconds"},
      {diff + " --min-seconds nan", "--min-seconds"},
      {roofline + " --peak-gbps 10x", "--peak-gbps"},
      {roofline + " --peak-gbps inf", "--peak-gbps"},
  };
  for (const auto& c : cases) {
    std::string output;
    EXPECT_EQ(run_obsctl(c.args, &output), 2) << c.args;
    EXPECT_NE(output.find(c.flag), std::string::npos) << c.args << output;
  }
  // Well-formed values still work.
  EXPECT_EQ(run_obsctl(diff + " --min-seconds 0.05"), 0);
  EXPECT_EQ(run_obsctl(roofline + " --peak-gbps 10"), 0);
  std::remove(path.c_str());
}

// --- events -----------------------------------------------------------------

// A trace file: manifest, a span, and event lines between and after it.
// The event lines carry the `trace_id` field older traces hold; readers
// ignore it.
const char kEventTrace[] =
    "{\"manifest\":{\"git_sha\":\"abc\",\"build_type\":\"Release\"}}\n"
    "{\"event\":\"sweep.start\",\"severity\":\"info\",\"ts_ns\":1000000000,"
    "\"pid\":42,\"trace_id\":\"00000000000000ab\",\"span_id\":1,"
    "\"attrs\":{\"points_total\":3}}\n"
    "{\"name\":\"solve\",\"id\":1,\"parent\":0,\"depth\":0,\"tid\":1,"
    "\"pid\":42,\"ts_ns\":0,\"dur_ns\":1000}\n"
    "{\"event\":\"sweep.done\",\"severity\":\"info\",\"ts_ns\":2500000000,"
    "\"pid\":42,\"trace_id\":\"00000000000000ab\",\"span_id\":0}\n";

TEST(ObsctlCliTest, EventsPrettyPrintsRecordsAndExitsZero) {
  const std::string path = temp_path("stocdr_events_ok.jsonl");
  write_file(path, kEventTrace);
  std::string output;
  EXPECT_EQ(run_obsctl("events " + path, &output), 0);
  EXPECT_NE(output.find("sweep.start"), std::string::npos);
  EXPECT_NE(output.find("points_total=3"), std::string::npos);
  EXPECT_NE(output.find("+1.500s"), std::string::npos);  // relative time
  EXPECT_NE(output.find("events: 2  alarms: 0"), std::string::npos);
  EXPECT_EQ(output.find("malformed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, EventsAlarmSeverityExitsOne) {
  const std::string path = temp_path("stocdr_events_alarm.jsonl");
  write_file(path,
             std::string(kEventTrace) +
                 "{\"event\":\"health.mass_alarm\",\"severity\":\"alarm\","
                 "\"ts_ns\":3000000000,\"pid\":42,"
                 "\"trace_id\":\"00000000000000ab\",\"span_id\":0}\n");
  std::string output;
  EXPECT_EQ(run_obsctl("events " + path, &output), 1);
  EXPECT_NE(output.find("ALARM"), std::string::npos);
  EXPECT_NE(output.find("events: 3  alarms: 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, EventsKindFilterAndTornTailAreHandled) {
  const std::string path = temp_path("stocdr_events_filter.jsonl");
  // A torn final line, exactly as a crash mid-write leaves it.
  write_file(path, std::string(kEventTrace) + "{\"event\":\"half");
  std::string output;
  EXPECT_EQ(run_obsctl("events " + path + " --kind sweep.done", &output), 0);
  EXPECT_NE(output.find("events: 1"), std::string::npos);
  EXPECT_NE(output.find("skipped 1 malformed line(s)"), std::string::npos);
  // A filter matching nothing is no-data, not success.
  EXPECT_EQ(run_obsctl("events " + path + " --kind no.such", &output), 3);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, EventsMissingFileExitsThreeWithHint) {
  std::string output;
  EXPECT_EQ(run_obsctl("events " + temp_path("no_events.jsonl"), &output), 3);
  EXPECT_NE(output.find("STOCDR_TRACE_FILE"), std::string::npos);
}

TEST(ObsctlCliTest, SummarizeIgnoresEventLinesInATrace) {
  const std::string spans = temp_path("stocdr_summarize_spans.jsonl");
  const std::string mixed = temp_path("stocdr_summarize_mixed.jsonl");
  const std::string event =
      "{\"event\":\"rung.failure\",\"severity\":\"warning\","
      "\"ts_ns\":1000000000,\"pid\":42,\"trace_id\":\"00000000000000ab\","
      "\"span_id\":1,\"attrs\":{\"method\":\"power\"}}\n";
  write_file(spans, kValidTrace);
  write_file(mixed, event + kValidTrace + event);
  std::string span_only;
  std::string with_events;
  EXPECT_EQ(run_obsctl("summarize --json " + spans, &span_only), 0);
  EXPECT_EQ(run_obsctl("summarize --json " + mixed, &with_events), 0);
  EXPECT_EQ(with_events, span_only);
  EXPECT_EQ(run_obsctl("summarize " + mixed, &with_events), 0);
  EXPECT_EQ(with_events.find("malformed"), std::string::npos);
  EXPECT_NE(with_events.find("spans: 2"), std::string::npos);
  std::remove(spans.c_str());
  std::remove(mixed.c_str());
}

// --- journal v2 ledger ------------------------------------------------------

TEST(ObsctlCliTest, JournalShowsProgressWallAndEta) {
  const std::string path = temp_path("stocdr_journal_v2.jsonl");
  write_file(path,
             "{\"journal\":\"stocdr-sweep\",\"version\":2,"
             "\"config_hash\":\"abc\",\"points_total\":4}\n"
             "{\"point\":\"alpha\",\"result\":{\"v\":1},"
             "\"stats\":{\"wall_seconds\":2.0,\"iterations\":12,"
             "\"residual\":1e-10}}\n"
             "{\"point\":\"beta\",\"result\":{\"v\":2},"
             "\"stats\":{\"wall_seconds\":4.0}}\n");
  std::string output;
  EXPECT_EQ(run_obsctl("journal " + path, &output), 0);
  EXPECT_NE(output.find("progress:    2/4 point(s)"), std::string::npos);
  EXPECT_NE(output.find("12 iter"), std::string::npos);
  EXPECT_NE(output.find("6.00s total, 3.00s/point (2 measured)"),
            std::string::npos);
  EXPECT_NE(output.find("eta:         6.00s (2 remaining x mean)"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsctlCliTest, WatchToleratesMissingFile) {
  std::string output;
  EXPECT_EQ(run_obsctl("watch " + temp_path("not_there.om") +
                           " --count 1 --interval 10",
                       &output),
            0);
  EXPECT_NE(output.find("waiting for exporter"), std::string::npos);
}

}  // namespace
