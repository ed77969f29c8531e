// Sweep journal recovery (torn tails, bit rot, config keys) and the
// resumable sweep runner's bit-identical kill-resume guarantee
// (src/robust/journal/).
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "robust/faultinject/faultinject.hpp"
#include "robust/journal/journal.hpp"
#include "robust/journal/sweep.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::robust::jnl {
namespace {

std::string temp_path(const std::string& file) {
  return test::unique_temp_path(file);
}

class SweepJournalTest : public test::TempFilesTest {};
class SweepRunnerTest : public test::TempFilesTest {};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string fresh_path(const std::string& file) {
  const std::string path = temp_path(file);
  std::remove(path.c_str());
  return path;
}

// --- open / append / reopen -------------------------------------------------

TEST_F(SweepJournalTest, FreshJournalThenResume) {
  const std::string path = fresh_path("stocdr_jnl_roundtrip.jsonl");
  {
    SweepJournal journal(path, "hash-a");
    EXPECT_TRUE(journal.stats().fresh);
    EXPECT_EQ(journal.size(), 0u);
    journal.append("p1", "{\"v\":1}");
    journal.append("p2", "{\"v\":2}");
    EXPECT_TRUE(journal.has("p1"));
    EXPECT_FALSE(journal.has("p3"));
  }
  SweepJournal journal(path, "hash-a");
  EXPECT_FALSE(journal.stats().fresh);
  EXPECT_EQ(journal.stats().resumed, 2u);
  EXPECT_EQ(journal.stats().torn_tail_bytes, 0u);
  EXPECT_EQ(journal.stats().malformed_lines, 0u);
  ASSERT_NE(journal.result("p2"), nullptr);
  EXPECT_EQ(*journal.result("p2"), "{\"v\":2}");
}

TEST_F(SweepJournalTest, DuplicateAppendIsAProgrammingError) {
  const std::string path = fresh_path("stocdr_jnl_dup.jsonl");
  SweepJournal journal(path, "hash-a");
  journal.append("p1", "{}");
  EXPECT_THROW(journal.append("p1", "{}"), PreconditionError);
}

// --- crash damage -----------------------------------------------------------

TEST_F(SweepJournalTest, TornTailIsTruncatedAndCounted) {
  const std::string path = fresh_path("stocdr_jnl_torn.jsonl");
  {
    SweepJournal journal(path, "hash-a");
    journal.append("p1", "{\"v\":1}");
  }
  // A crash mid-append leaves an unterminated prefix of the next record.
  append_raw(path, "{\"point\":\"p2\",\"resu");
  const std::size_t damaged = read_file(path).size();

  SweepJournal journal(path, "hash-a");
  EXPECT_EQ(journal.stats().resumed, 1u);
  EXPECT_EQ(journal.stats().torn_tail_bytes, 19u);
  EXPECT_FALSE(journal.has("p2"));
  EXPECT_EQ(read_file(path).size(), damaged - 19u);  // repaired in place

  // Appends after repair land on a clean line boundary.
  journal.append("p2", "{\"v\":2}");
  SweepJournal reopened(path, "hash-a");
  EXPECT_EQ(reopened.stats().resumed, 2u);
  EXPECT_EQ(reopened.stats().torn_tail_bytes, 0u);
}

TEST_F(SweepJournalTest, MalformedTerminatedTailIsAlsoTorn) {
  const std::string path = fresh_path("stocdr_jnl_torn_nl.jsonl");
  {
    SweepJournal journal(path, "hash-a");
    journal.append("p1", "{\"v\":1}");
  }
  append_raw(path, "{\"point\":\"p2\",,,\n");
  SweepJournal journal(path, "hash-a");
  EXPECT_EQ(journal.stats().resumed, 1u);
  EXPECT_GT(journal.stats().torn_tail_bytes, 0u);
  EXPECT_FALSE(journal.has("p2"));
}

TEST_F(SweepJournalTest, InteriorBitRotIsSkippedNotFatal) {
  const std::string path = fresh_path("stocdr_jnl_rot.jsonl");
  {
    SweepJournal journal(path, "hash-a");
    journal.append("p1", "{\"v\":1}");
  }
  // Bit rot on a line that is *not* the tail: a valid record follows it.
  append_raw(path, "x!x!x garbage line x!x!x\n");
  append_raw(path, "{\"point\":\"p2\",\"result\":{\"v\":2}}\n");
  SweepJournal journal(path, "hash-a");
  EXPECT_EQ(journal.stats().resumed, 2u);
  EXPECT_EQ(journal.stats().malformed_lines, 1u);
  EXPECT_TRUE(journal.has("p1"));
  EXPECT_TRUE(journal.has("p2"));
}

TEST_F(SweepJournalTest, ForeignConfigHashDiscardsTheJournal) {
  const std::string path = fresh_path("stocdr_jnl_mismatch.jsonl");
  {
    SweepJournal journal(path, "hash-a");
    journal.append("p1", "{\"v\":1}");
  }
  SweepJournal journal(path, "hash-b");
  EXPECT_TRUE(journal.stats().fresh);
  EXPECT_TRUE(journal.stats().config_mismatch);
  EXPECT_EQ(journal.stats().resumed, 0u);
  EXPECT_FALSE(journal.has("p1"));

  // The file was re-keyed: reopening under hash-b resumes cleanly.
  journal.append("p1", "{\"v\":9}");
  SweepJournal reopened(path, "hash-b");
  EXPECT_EQ(reopened.stats().resumed, 1u);
  EXPECT_FALSE(reopened.stats().config_mismatch);
}

// --- journal v2: stats ledger, points_total, v1 compat ----------------------

TEST_F(SweepJournalTest, VersionOneJournalStillReplays) {
  const std::string path = fresh_path("stocdr_jnl_v1.jsonl");
  // Hand-written v1 journal: no points_total, records without stats.
  append_raw(path,
             "{\"journal\":\"stocdr-sweep\",\"version\":1,"
             "\"config_hash\":\"hash-a\"}\n");
  append_raw(path, "{\"point\":\"p1\",\"result\":{\"v\":1}}\n");

  SweepJournal journal(path, "hash-a");
  EXPECT_FALSE(journal.stats().fresh);
  EXPECT_FALSE(journal.stats().config_mismatch);
  EXPECT_EQ(journal.stats().resumed, 1u);
  EXPECT_EQ(journal.points_total(), 0u);  // v1 headers carry no total
  ASSERT_NE(journal.result("p1"), nullptr);
  EXPECT_EQ(*journal.result("p1"), "{\"v\":1}");
  // v1 records carry no ledger entry.
  EXPECT_EQ(journal.point_stats("p1"), nullptr);

  // Appends (with stats) extend the v1 file in place and replay fine.
  PointStats stats;
  stats.wall_seconds = 1.5;
  stats.valid = true;
  journal.append("p2", "{\"v\":2}", stats);
  SweepJournal reopened(path, "hash-a");
  EXPECT_EQ(reopened.stats().resumed, 2u);
  ASSERT_NE(reopened.point_stats("p2"), nullptr);
  EXPECT_DOUBLE_EQ(reopened.point_stats("p2")->wall_seconds, 1.5);
}

TEST_F(SweepJournalTest, FutureVersionIsDiscardedAsForeign) {
  const std::string path = fresh_path("stocdr_jnl_v9.jsonl");
  append_raw(path,
             "{\"journal\":\"stocdr-sweep\",\"version\":9,"
             "\"config_hash\":\"hash-a\"}\n");
  append_raw(path, "{\"point\":\"p1\",\"result\":{\"v\":1}}\n");
  SweepJournal journal(path, "hash-a");
  EXPECT_TRUE(journal.stats().fresh);
  EXPECT_TRUE(journal.stats().config_mismatch);
  EXPECT_FALSE(journal.has("p1"));
}

TEST_F(SweepJournalTest, StatsAndPointsTotalRoundTrip) {
  const std::string path = fresh_path("stocdr_jnl_stats.jsonl");
  {
    SweepJournal journal(path, "hash-a", /*points_total=*/5);
    EXPECT_EQ(journal.points_total(), 5u);
    PointStats stats;
    stats.wall_seconds = 0.125;
    stats.iterations = 42;
    stats.residual = 1e-10;
    stats.peak_bytes = 1u << 20;
    stats.valid = true;
    journal.append("p1", "{\"v\":1}", stats);
    journal.append("p2", "{\"v\":2}");  // unmeasured: no stats object
  }
  SweepJournal journal(path, "hash-a");
  EXPECT_EQ(journal.points_total(), 5u);  // recovered from the header
  EXPECT_EQ(journal.stats().resumed, 2u);
  const PointStats* stats = journal.point_stats("p1");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->valid);
  EXPECT_DOUBLE_EQ(stats->wall_seconds, 0.125);
  EXPECT_EQ(stats->iterations, 42u);
  EXPECT_DOUBLE_EQ(stats->residual, 1e-10);
  EXPECT_EQ(stats->peak_bytes, 1u << 20);
  EXPECT_EQ(journal.point_stats("p2"), nullptr);
}

// --- resumable sweep runner -------------------------------------------------

std::string toy_result(const std::string& key) {
  return "{\"key\":\"" + key + "\",\"value\":" +
         std::to_string(key.size() * 10) + "}";
}

TEST_F(SweepRunnerTest, RunsEveryPointAndReplaysOnRerun) {
  const std::string path = fresh_path("stocdr_sweep_run.jsonl");
  const std::vector<std::string> points = {"alpha", "beta", "gamma"};

  const SweepOutcome first = run_sweep(path, "hash-a", points, toy_result);
  EXPECT_EQ(first.computed, 3u);
  EXPECT_EQ(first.skipped, 0u);
  ASSERT_EQ(first.results.size(), 3u);
  EXPECT_EQ(first.results[1], toy_result("beta"));

  const SweepOutcome second = run_sweep(
      path, "hash-a", points, [](const std::string&) -> std::string {
        ADD_FAILURE() << "replayed points must not re-solve";
        return "{}";
      });
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.skipped, 3u);
  EXPECT_EQ(second.results, first.results);
}

TEST_F(SweepRunnerTest, RecordsLedgerStatsAndProgressGauges) {
  const std::string path = fresh_path("stocdr_sweep_ledger.jsonl");
  const std::vector<std::string> points = {"alpha", "beta"};
  const SweepOutcome outcome = run_sweep(path, "hash-a", points, toy_result);
  EXPECT_EQ(outcome.computed, 2u);

  // Every solved point left a v2 ledger entry behind.
  SweepJournal journal(path, "hash-a");
  EXPECT_EQ(journal.points_total(), 2u);
  const PointStats* stats = journal.point_stats("alpha");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->valid);
  EXPECT_GE(stats->wall_seconds, 0.0);

  // Live progress gauges reflect the finished run (ETA drains to zero).
  auto& registry = obs::MetricsRegistry::instance();
  EXPECT_DOUBLE_EQ(registry.gauge("sweep.points_total").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("sweep.points_done").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("sweep.eta_seconds").value(), 0.0);
}

TEST_F(SweepRunnerTest, ArtifactBytesAreDeterministic) {
  const std::string journal = fresh_path("stocdr_sweep_art.jsonl");
  const std::string artifact = fresh_path("stocdr_sweep_art.json");
  const std::vector<std::string> points = {"alpha", "beta"};
  const SweepOutcome outcome = run_sweep(journal, "hash-a", points, toy_result);
  write_sweep_artifact(artifact, "toy", "hash-a", points, outcome.results);

  const std::string bytes = read_file(artifact);
  EXPECT_NE(bytes.find("\"schema\":\"stocdr-sweep-artifact-v1\""),
            std::string::npos);
  EXPECT_NE(bytes.find("\"points_total\":2"), std::string::npos);
  EXPECT_EQ(bytes.back(), '\n');

  write_sweep_artifact(artifact, "toy", "hash-a", points, outcome.results);
  EXPECT_EQ(read_file(artifact), bytes);  // byte-stable across rewrites
}

// The tentpole guarantee, in-process: SIGKILL a sweep mid-run (via the
// seeded sweep_point:kill directive in a forked child), resume in the
// parent, and require the final artifact to be byte-identical to an
// uninterrupted run's.
TEST_F(SweepRunnerTest, KillResumeArtifactIsByteIdentical) {
  const std::string journal = fresh_path("stocdr_sweep_kill.jsonl");
  const std::string artifact = fresh_path("stocdr_sweep_kill.json");
  const std::vector<std::string> points = {"alpha", "beta", "gamma"};

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: die by injected SIGKILL at the second solved point.  The
    // first point's record is fsync'd before the kill can fire.
    fi::install_plan(fi::FaultPlan::parse("sweep_point:kill@2"));
    (void)run_sweep(journal, "hash-a", points, toy_result);
    _exit(0);  // unreachable when the kill fires
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child was expected to die";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Parent: resume.  The journal holds exactly the pre-kill prefix.
  const SweepOutcome resumed = run_sweep(journal, "hash-a", points, toy_result);
  EXPECT_EQ(resumed.skipped, 1u);
  EXPECT_EQ(resumed.computed, 2u);
  write_sweep_artifact(artifact, "toy", "hash-a", points, resumed.results);

  // Uninterrupted control run with its own journal.
  const std::string journal2 = fresh_path("stocdr_sweep_kill2.jsonl");
  const std::string artifact2 = fresh_path("stocdr_sweep_kill2.json");
  const SweepOutcome straight =
      run_sweep(journal2, "hash-a", points, toy_result);
  write_sweep_artifact(artifact2, "toy", "hash-a", points, straight.results);

  EXPECT_EQ(read_file(artifact), read_file(artifact2));
}

// A mid-append crash (torn journal line) must cost at most the one record:
// the rerun re-solves that point and the artifact still comes out right.
TEST_F(SweepRunnerTest, TornAppendLosesOnlyThatPoint) {
  const std::string path = fresh_path("stocdr_sweep_tornapp.jsonl");
  const std::vector<std::string> points = {"alpha", "beta"};

  fi::install_plan(fi::FaultPlan::parse("journal_append:torn@3"));
  // Armings: header, alpha's record, beta's record (torn -> throws).
  EXPECT_THROW((void)run_sweep(path, "hash-a", points, toy_result), IoError);
  fi::install_plan(std::nullopt);

  const SweepOutcome resumed = run_sweep(path, "hash-a", points, toy_result);
  EXPECT_EQ(resumed.skipped, 1u);   // alpha survived
  EXPECT_EQ(resumed.computed, 1u);  // beta re-solved after tail repair
  EXPECT_GT(resumed.journal.torn_tail_bytes, 0u);  // repaired at reopen
  EXPECT_EQ(resumed.results[1], toy_result("beta"));
}

}  // namespace
}  // namespace stocdr::robust::jnl
