// End-to-end CLI contract of stocdr-obsctl: exit codes and diagnostics for
// healthy, empty, and missing inputs.  The binary path is injected by CMake
// as STOCDR_OBSCTL_PATH.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

std::string temp_path(const std::string& file) {
  return ::testing::TempDir() + "/" + file;
}

/// Runs obsctl with `args`, captures stdout+stderr into `output`, returns
/// the exit code (-1 if the shell failed).  The capture file is unique per
/// test process: ctest runs these tests concurrently out of one TempDir,
/// and a shared path would let parallel tests clobber each other's output.
int run_obsctl(const std::string& args, std::string* output = nullptr) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string out_path = temp_path(
      "stocdr_obsctl_out_" + std::to_string(::getpid()) + ".txt");
#else
  const std::string out_path = temp_path("stocdr_obsctl_out.txt");
#endif
  const std::string command = std::string(STOCDR_OBSCTL_PATH) + " " + args +
                              " >" + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  if (output != nullptr) {
    std::ifstream in(out_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *output = buffer.str();
  }
  std::remove(out_path.c_str());
#if defined(__unix__) || defined(__APPLE__)
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
#else
  return status;
#endif
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
  std::string output;
  EXPECT_EQ(run_obsctl("frobnicate", &output), 2);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
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

// --- multi-file traces ------------------------------------------------------

/// Two single-process traces with colliding span ids but distinct pids, as
/// a two-worker fleet run leaves behind.
const char kWorkerATrace[] =
    "{\"manifest\":{\"git_sha\":\"abc\",\"build_type\":\"Release\"}}\n"
    "{\"name\":\"sweep.fleet\",\"id\":1,\"parent\":0,\"depth\":0,\"tid\":1,"
    "\"ts_ns\":0,\"dur_ns\":9000,\"pid\":100}\n";
const char kWorkerBTrace[] =
    "{\"manifest\":{\"git_sha\":\"abc\",\"build_type\":\"Release\"}}\n"
    "{\"name\":\"sweep.shard\",\"id\":1,\"parent\":0,\"depth\":0,\"tid\":1,"
    "\"ts_ns\":100,\"dur_ns\":5000,\"pid\":200,"
    "\"remote_parent_pid\":100,\"remote_parent_id\":1}\n";

TEST(ObsctlCliTest, SummarizeMergesMultipleTraceFiles) {
  const std::string a = temp_path("stocdr_fleet_a.jsonl");
  const std::string b = temp_path("stocdr_fleet_b.jsonl");
  write_file(a, kWorkerATrace);
  write_file(b, kWorkerBTrace);
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + a + " " + b, &output), 0);
  EXPECT_NE(output.find("processes: 2"), std::string::npos);
  EXPECT_NE(output.find("spans: 2"), std::string::npos);
  EXPECT_NE(output.find("sweep.shard"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ObsctlCliTest, SummarizeSkipsMissingFileWhenAnotherYieldsSpans) {
  const std::string a = temp_path("stocdr_fleet_present.jsonl");
  write_file(a, kWorkerATrace);
  std::string output;
  EXPECT_EQ(run_obsctl("summarize " + temp_path("stocdr_fleet_absent.jsonl") +
                           " " + a,
                       &output),
            0);
  // The missing worker is diagnosed but does not fail the merge.
  EXPECT_NE(output.find("was tracing enabled"), std::string::npos);
  EXPECT_NE(output.find("sweep.fleet"), std::string::npos);
  std::remove(a.c_str());
}

TEST(ObsctlCliTest, ChromeExportOfMergedTraceCarriesFlowArrow) {
  const std::string a = temp_path("stocdr_chrome_a.jsonl");
  const std::string b = temp_path("stocdr_chrome_b.jsonl");
  const std::string out = temp_path("stocdr_chrome_merged.json");
  write_file(a, kWorkerATrace);
  write_file(b, kWorkerBTrace);
  EXPECT_EQ(run_obsctl("chrome " + a + " " + b + " -o " + out), 0);
  std::ifstream in(out);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // Real pids on the X events plus one s/f flow pair across processes.
  EXPECT_NE(json.find("\"pid\":100"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":200"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(out.c_str());
}

// --- fleet ------------------------------------------------------------------

/// One worker's OpenMetrics snapshot: heartbeat + pid, a counter, and a
/// one-bucket histogram (value 1.0 lands in bucket 96 of the log grid).
std::string worker_om(int pid, int count, int done) {
  std::ostringstream om;
  om << "stocdr_export_heartbeat 4\n"
     << "stocdr_process_pid " << pid << "\n"
     << "stocdr_sweep_points_done_total " << done << "\n"
     << "stocdr_solve_seconds{quantile=\"0.5\"} 1\n"
     << "stocdr_solve_seconds_count " << count << "\n"
     << "stocdr_solve_seconds_sum " << count << "\n"
     << "stocdr_solve_seconds_min 1\n"
     << "stocdr_solve_seconds_max 1\n"
     << "stocdr_solve_seconds_bucket{i=\"96\"} " << count << "\n"
     << "# EOF\n";
  return om.str();
}

TEST(ObsctlCliTest, FleetMergesTwoWorkerSnapshots) {
  const std::string a = temp_path("stocdr_fleet_a.om");
  const std::string b = temp_path("stocdr_fleet_b.om");
  write_file(a, worker_om(111, 3, 2));
  write_file(b, worker_om(222, 2, 3));
  std::string output;
  EXPECT_EQ(run_obsctl("fleet " + a + " " + b, &output), 0);
  EXPECT_NE(output.find("workers: 2"), std::string::npos);
  // Both pids in the per-worker status table.
  EXPECT_NE(output.find("111"), std::string::npos);
  EXPECT_NE(output.find("222"), std::string::npos);
  // Counters add (2+3) and histograms merge exactly (3+2 observations).
  EXPECT_NE(output.find("sweep_points_done"), std::string::npos);
  EXPECT_NE(output.find("solve_seconds"), std::string::npos);
  EXPECT_NE(output.find("5"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ObsctlCliTest, FleetWithOnlyIncompleteSnapshotsExitsThree) {
  const std::string path = temp_path("stocdr_fleet_torn.om");
  write_file(path, "stocdr_export_heartbeat 1\n");  // no "# EOF"
  std::string output;
  EXPECT_EQ(run_obsctl("fleet " + path, &output), 3);
  EXPECT_NE(output.find("incomplete"), std::string::npos);
  EXPECT_NE(output.find("workers: 0"), std::string::npos);
  std::remove(path.c_str());
}

// --- events -----------------------------------------------------------------

// A trace file: manifest, a span, and event lines between and after it.
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

TEST(ObsctlCliTest, EventsMergesTraceFilesInWallTimeOrder) {
  // Two workers' trace files whose events interleave in wall time.
  const std::string a = temp_path("stocdr_events_merge.jsonl");
  const std::string b = a + ".shard1";
  const auto event = [](const char* kind, int ts_s, int pid) {
    return "{\"event\":\"" + std::string(kind) +
           "\",\"severity\":\"info\",\"ts_ns\":" + std::to_string(ts_s) +
           "000000000,\"pid\":" + std::to_string(pid) +
           ",\"trace_id\":\"00000000000000ab\",\"span_id\":0}\n";
  };
  write_file(a, event("first.a", 1, 101) + event("third.a", 3, 101));
  write_file(b, event("second.b", 2, 202) + event("fourth.b", 4, 202));
  std::string output;
  EXPECT_EQ(run_obsctl("events '" + a + "*'", &output), 0);
  const std::size_t p1 = output.find("first.a");
  const std::size_t p2 = output.find("second.b");
  const std::size_t p3 = output.find("third.a");
  const std::size_t p4 = output.find("fourth.b");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  ASSERT_NE(p4, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
  EXPECT_NE(output.find("202"), std::string::npos);
  EXPECT_NE(output.find("+3.000s"), std::string::npos);
  EXPECT_NE(output.find("events: 4  alarms: 0"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
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
