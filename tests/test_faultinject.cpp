// Deterministic fault-injection engine: plan grammar, arming semantics, and
// the io_write seam through AtomicFileWriter (src/robust/faultinject/).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "robust/faultinject/faultinject.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::robust::fi {
namespace {

std::string temp_path(const std::string& file) {
  return test::unique_temp_path(file);
}

class IoFaultTest : public test::TempFilesTest {};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Uninstalls the global plan when a test body returns or throws, so one
/// test's faults can never leak into the rest of the binary.
struct PlanGuard {
  explicit PlanGuard(FaultPlan plan) { install_plan(std::move(plan)); }
  ~PlanGuard() { install_plan(std::nullopt); }
};

// --- grammar ----------------------------------------------------------------

TEST(FaultPlanParseTest, EmptySpecIsAnEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ").empty());
}

TEST(FaultPlanParseTest, SingleDirective) {
  const FaultPlan plan = FaultPlan::parse("io_write:fail@3");
  ASSERT_EQ(plan.directives().size(), 1u);
  const Directive& d = plan.directives()[0];
  EXPECT_EQ(d.site, "io_write");
  EXPECT_EQ(d.action, Action::kFail);
  EXPECT_EQ(d.at, 3u);
  EXPECT_FALSE(d.sticky);
}

TEST(FaultPlanParseTest, StickyAndBareForms) {
  const FaultPlan plan =
      FaultPlan::parse("solver:nan@5+;checkpoint_load:corrupt");
  ASSERT_EQ(plan.directives().size(), 2u);
  EXPECT_EQ(plan.directives()[0].action, Action::kNan);
  EXPECT_EQ(plan.directives()[0].at, 5u);
  EXPECT_TRUE(plan.directives()[0].sticky);
  // Bare site:action is shorthand for @1+.
  EXPECT_EQ(plan.directives()[1].action, Action::kCorrupt);
  EXPECT_EQ(plan.directives()[1].at, 1u);
  EXPECT_TRUE(plan.directives()[1].sticky);
}

TEST(FaultPlanParseTest, EveryActionNameParses) {
  for (const char* spec :
       {"s:fail", "s:corrupt", "s:torn", "s:nan", "s:stall", "s:kill"}) {
    EXPECT_NO_THROW((void)FaultPlan::parse(spec)) << spec;
  }
}

TEST(FaultPlanParseTest, MalformedSpecsAreRejected) {
  for (const char* spec : {"nosite", ":fail", "site:", "site:explode",
                           "site:fail@", "site:fail@0", "site:fail@x"}) {
    EXPECT_THROW((void)FaultPlan::parse(spec), PreconditionError) << spec;
  }
}

// --- arming semantics -------------------------------------------------------

TEST(FaultPlanArmTest, ExactCountFiresExactlyOnce) {
  FaultPlan plan = FaultPlan::parse("site:fail@2");
  EXPECT_EQ(plan.arm("site"), Action::kNone);
  EXPECT_EQ(plan.arm("site"), Action::kFail);
  EXPECT_EQ(plan.arm("site"), Action::kNone);
  EXPECT_EQ(plan.hits("site"), 3u);
  EXPECT_EQ(plan.fired(), 1u);
}

TEST(FaultPlanArmTest, StickyCountFiresFromThenOn) {
  FaultPlan plan = FaultPlan::parse("site:corrupt@2+");
  EXPECT_EQ(plan.arm("site"), Action::kNone);
  EXPECT_EQ(plan.arm("site"), Action::kCorrupt);
  EXPECT_EQ(plan.arm("site"), Action::kCorrupt);
  EXPECT_EQ(plan.fired(), 2u);
}

TEST(FaultPlanArmTest, BareDirectiveFiresEveryArming) {
  FaultPlan plan = FaultPlan::parse("site:nan");
  EXPECT_EQ(plan.arm("site"), Action::kNan);
  EXPECT_EQ(plan.arm("site"), Action::kNan);
}

TEST(FaultPlanArmTest, SitesCountIndependently) {
  FaultPlan plan = FaultPlan::parse("a:fail@2;b:torn@1");
  EXPECT_EQ(plan.arm("b"), Action::kTorn);  // b's first arming
  EXPECT_EQ(plan.arm("a"), Action::kNone);  // a's first
  EXPECT_EQ(plan.arm("a"), Action::kFail);  // a's second
  EXPECT_EQ(plan.hits("a"), 2u);
  EXPECT_EQ(plan.hits("b"), 1u);
  EXPECT_EQ(plan.hits("never_armed"), 0u);
}

TEST(FaultPlanArmTest, UnlistedSiteNeverFires) {
  FaultPlan plan = FaultPlan::parse("other:fail");
  EXPECT_EQ(plan.arm("site"), Action::kNone);
  EXPECT_EQ(plan.fired(), 0u);
}

// --- the global plan --------------------------------------------------------

TEST(GlobalPlanTest, InstallFireUninstall) {
  {
    PlanGuard guard(FaultPlan::parse("gtest_site:stall@1"));
    EXPECT_TRUE(plan_active());
    EXPECT_EQ(arm("gtest_site"), Action::kStall);
    EXPECT_EQ(arm("gtest_site"), Action::kNone);
  }
  EXPECT_EQ(arm("gtest_site"), Action::kNone);
}

// --- io_write through AtomicFileWriter --------------------------------------

TEST_F(IoFaultTest, InjectedFailLeavesTheTargetUntouched) {
  const std::string path = temp_path("stocdr_fi_fail.txt");
  std::remove(path.c_str());
  PlanGuard guard(FaultPlan::parse("io_write:fail@1"));
  AtomicFileWriter writer(path);
  writer.write("should never land\n");
  EXPECT_THROW(writer.commit(), IoError);
  EXPECT_FALSE(std::ifstream(path).good());  // target was never created
}

TEST_F(IoFaultTest, InjectedTornCommitsAPrefix) {
  const std::string path = temp_path("stocdr_fi_torn.txt");
  std::remove(path.c_str());
  const std::string payload = "0123456789abcdef0123456789abcdef";
  {
    PlanGuard guard(FaultPlan::parse("io_write:torn@1"));
    AtomicFileWriter writer(path);
    writer.write(payload);
    writer.commit();
  }
  const std::string on_disk = read_file(path);
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_EQ(on_disk, payload.substr(0, on_disk.size()));
}

TEST_F(IoFaultTest, SecondCommitIsCleanAfterAOneShotFault) {
  const std::string path = temp_path("stocdr_fi_retry.txt");
  std::remove(path.c_str());
  PlanGuard guard(FaultPlan::parse("io_write:fail@1"));
  {
    AtomicFileWriter writer(path);
    writer.write("first try\n");
    EXPECT_THROW(writer.commit(), IoError);
  }
  {
    AtomicFileWriter writer(path);
    writer.write("second try\n");
    writer.commit();
  }
  EXPECT_EQ(read_file(path), "second try\n");
}

TEST_F(IoFaultTest, TempNameIsPidUnique) {
  const std::string path = temp_path("stocdr_fi_temp.txt");
  AtomicFileWriter writer(path);
  EXPECT_NE(writer.temp_path().find(std::to_string(::getpid())),
            std::string::npos)
      << writer.temp_path();
  EXPECT_NE(writer.temp_path(), path);
  writer.discard();
}

}  // namespace
}  // namespace stocdr::robust::fi
