// End-to-end CLI contract of cdr_analyzer: malformed numeric flag values
// are usage errors (exit 2, naming the flag), and a stationary solve that
// did not converge still prints its measures but exits 5.  The binary path
// is injected by CMake as STOCDR_ANALYZER_PATH.
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace {

using stocdr::test::unique_temp_path;

class CdrAnalyzerCliTest : public stocdr::test::TempFilesTest {
 protected:
  /// Runs cdr_analyzer with `args`, captures stdout+stderr into `output`,
  /// returns the exit code (-1 if the shell failed).
  static int run_analyzer(const std::string& args,
                          std::string* output = nullptr) {
    return stocdr::test::run_command(
        std::string(STOCDR_ANALYZER_PATH) + " " + args, output);
  }
};

TEST_F(CdrAnalyzerCliTest, MalformedNumericFlagValuesExitTwoNamingTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      // Wrapped, -5 is a 16 EiB budget that "fits"...
      {"--memory-budget -5 --mem-estimate", "--memory-budget"},
      // ...and a prefix parse reads 1e9 as a 1-byte budget.
      {"--memory-budget 1e9 --mem-estimate", "--memory-budget"},
      {"--memory-budget 99999999999999999999999 --mem-estimate",
       "--memory-budget"},
      {"--time-budget abc --print-config", "--time-budget"},
      {"--time-budget nan --print-config", "--time-budget"},
      {"--time-budget -1 --print-config", "--time-budget"},
      {"--tolerance 1e-10x --print-config", "--tolerance"},
      {"--tolerance inf --print-config", "--tolerance"},
      {"--checkpoint-period 3x --print-config", "--checkpoint-period"},
      {"--checkpoint-period +3 --print-config", "--checkpoint-period"},
      {"--threads 4x --print-config", "--threads"},
      {"--threads -2 --print-config", "--threads"},
  };
  for (const auto& c : cases) {
    std::string output;
    EXPECT_EQ(run_analyzer(c.args, &output), 2) << c.args << "\n" << output;
    EXPECT_NE(output.find(c.flag), std::string::npos) << c.args << output;
  }
  // Well-formed values still work.
  std::string output;
  EXPECT_EQ(run_analyzer("--memory-budget 25000000 --mem-estimate", &output),
            0)
      << output;
  EXPECT_NE(output.find("budget 23.84 MiB"), std::string::npos) << output;
  EXPECT_EQ(run_analyzer("--tolerance 1e-10 --time-budget 0.5 "
                         "--checkpoint-period 3 --threads 2 --print-config"),
            0);
  EXPECT_EQ(run_analyzer("--threads auto --time-budget 0 --print-config"), 0);
}

TEST_F(CdrAnalyzerCliTest, UnconvergedSolveExitsFiveAndStillPrintsMeasures) {
  // A zero deadline stops the robust ladder at its initial guess; an
  // injected NaN exhausts it.  Neither answer is converged.
  for (const char* args : {"--time-budget 0", "--robust --inject-fault nan"}) {
    std::string output;
    EXPECT_EQ(run_analyzer(args, &output), 5) << args << "\n" << output;
    const std::size_t warning = output.find("NOT CONVERGED");
    const std::size_t ber = output.find("bit-error rate");
    ASSERT_NE(warning, std::string::npos) << args << output;
    ASSERT_NE(ber, std::string::npos) << args << output;
    EXPECT_LT(warning, ber) << args;
  }
}

TEST_F(CdrAnalyzerCliTest, PlainSolveThatMissesItsToleranceExitsFive) {
  // A tolerance below double precision cannot be met: the multilevel solve
  // runs out of cycles on the plain (non-robust) path.
  const std::string config = unique_temp_path("small_op.txt");
  std::ofstream(config) << "phase_points = 64\nvco_phases = 16\n"
                           "counter_length = 2\nmax_run_length = 3\n"
                           "sigma_nw = 0.02\nnr_mean = 0.004\n"
                           "nr_max = 0.012\nnr_atoms = 5\n";
  std::string output;
  EXPECT_EQ(run_analyzer(config + " --tolerance 1e-300", &output), 5)
      << output;
  EXPECT_NE(output.find("NOT CONVERGED"), std::string::npos) << output;
  EXPECT_NE(output.find("bit-error rate"), std::string::npos) << output;
  // The same operating point at the default tolerance converges: exit 0.
  EXPECT_EQ(run_analyzer(config, &output), 0) << output;
  EXPECT_EQ(output.find("NOT CONVERGED"), std::string::npos) << output;
}

}  // namespace
