// Durable checkpoint format, corruption matrix, generation rotation, and
// robust-solver restore integration (src/robust/checkpoint/).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "markov/chain.hpp"
#include "robust/checkpoint/checkpoint.hpp"
#include "robust/robust_solver.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::robust::ckpt {
namespace {

std::string temp_path(const std::string& file) {
  return test::unique_temp_path(file);
}

class CheckpointFileTest : public test::TempFilesTest {};
class CheckpointRestoreTest : public test::TempFilesTest {};

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.config_hash = "deadbeefcafef00d";
  ckpt.iteration = 42;
  ckpt.residual = 1.25e-7;
  ckpt.iterate = {0.125, 0.25, 0.375, 0.25};
  return ckpt;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

// --- serialize / deserialize ------------------------------------------------

TEST(CheckpointFormatTest, RoundTripPreservesEveryField) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string bytes = serialize(ckpt);
  const LoadResult loaded =
      deserialize(bytes, ckpt.config_hash, ckpt.iterate.size());

  ASSERT_EQ(loaded.status, LoadStatus::kOk) << loaded.detail;
  EXPECT_EQ(loaded.checkpoint.config_hash, ckpt.config_hash);
  EXPECT_EQ(loaded.checkpoint.iteration, ckpt.iteration);
  EXPECT_EQ(loaded.checkpoint.residual, ckpt.residual);
  EXPECT_EQ(loaded.checkpoint.iterate, ckpt.iterate);
  EXPECT_TRUE(loaded.detail.empty());
}

TEST(CheckpointFormatTest, SkippedChecksAcceptAnyHashAndSize) {
  const std::string bytes = serialize(sample_checkpoint());
  EXPECT_EQ(deserialize(bytes, "", 0).status, LoadStatus::kOk);
}

// --- corruption matrix ------------------------------------------------------

TEST(CheckpointFormatTest, TruncationIsTorn) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string bytes = serialize(ckpt);
  // Every proper prefix must read as torn or corrupt, never as kOk.
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                           std::size_t{17}, std::size_t{1}, std::size_t{0}}) {
    const LoadResult r = deserialize(bytes.substr(0, keep), ckpt.config_hash,
                                     ckpt.iterate.size());
    EXPECT_TRUE(is_reject(r.status)) << "prefix of " << keep << " bytes";
    EXPECT_EQ(r.status, LoadStatus::kTorn) << "prefix of " << keep << " bytes";
    EXPECT_FALSE(r.detail.empty());
  }
}

TEST(CheckpointFormatTest, EveryBitFlipIsDetected) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string clean = serialize(ckpt);
  // Flip one bit in each region (magic, header, hash, payload, trailer);
  // nothing may load as a clean checkpoint.
  for (std::size_t offset :
       {std::size_t{0}, std::size_t{9}, std::size_t{41}, clean.size() / 2,
        clean.size() - 2}) {
    std::string bytes = clean;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    const LoadResult r =
        deserialize(bytes, ckpt.config_hash, ckpt.iterate.size());
    EXPECT_TRUE(is_reject(r.status)) << "bit flip at offset " << offset;
    EXPECT_NE(r.status, LoadStatus::kOk) << "bit flip at offset " << offset;
  }
}

TEST(CheckpointFormatTest, PayloadBitFlipIsCorrupt) {
  const Checkpoint ckpt = sample_checkpoint();
  std::string bytes = serialize(ckpt);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const LoadResult r =
      deserialize(bytes, ckpt.config_hash, ckpt.iterate.size());
  EXPECT_EQ(r.status, LoadStatus::kCorrupt);
}

TEST(CheckpointFormatTest, VersionSkewIsReportedAsSuch) {
  std::string bytes = serialize(sample_checkpoint());
  // format_version is the u32 right after the 8-byte magic.
  bytes[8] = static_cast<char>(kFormatVersion + 1);
  const LoadResult r = deserialize(bytes, "", 0);
  EXPECT_EQ(r.status, LoadStatus::kVersionSkew);
  EXPECT_NE(r.detail.find("version"), std::string::npos) << r.detail;
}

TEST(CheckpointFormatTest, ConfigMismatchIsRejected) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string bytes = serialize(ckpt);
  const LoadResult r =
      deserialize(bytes, "someotherconfig!", ckpt.iterate.size());
  EXPECT_EQ(r.status, LoadStatus::kConfigMismatch);
}

TEST(CheckpointFormatTest, SizeMismatchIsRejected) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string bytes = serialize(ckpt);
  const LoadResult r =
      deserialize(bytes, ckpt.config_hash, ckpt.iterate.size() + 1);
  EXPECT_EQ(r.status, LoadStatus::kSizeMismatch);
}

TEST(CheckpointFormatTest, ForeignFileIsCorruptNotCrash) {
  // Long enough to cover the fixed header, but with a foreign magic.
  const std::string foreign(64, 'z');
  EXPECT_EQ(deserialize(foreign, "", 0).status, LoadStatus::kCorrupt);
  // Shorter than the fixed header reads as a torn write.
  EXPECT_EQ(deserialize("zzzz", "", 0).status, LoadStatus::kTorn);
}

TEST(CheckpointFormatTest, RejectPredicateMatchesTheMatrix) {
  EXPECT_FALSE(is_reject(LoadStatus::kOk));
  EXPECT_FALSE(is_reject(LoadStatus::kMissing));
  for (LoadStatus s : {LoadStatus::kTorn, LoadStatus::kCorrupt,
                       LoadStatus::kVersionSkew, LoadStatus::kConfigMismatch,
                       LoadStatus::kSizeMismatch}) {
    EXPECT_TRUE(is_reject(s)) << to_string(s);
  }
}

// --- file round trip and generations ----------------------------------------

TEST_F(CheckpointFileTest, WriteThenLoadRoundTrips) {
  const std::string path = temp_path("stocdr_ckpt_roundtrip.bin");
  std::remove(path.c_str());
  const Checkpoint ckpt = sample_checkpoint();
  write_checkpoint(path, ckpt);
  const LoadResult r =
      load_checkpoint(path, ckpt.config_hash, ckpt.iterate.size());
  ASSERT_EQ(r.status, LoadStatus::kOk) << r.detail;
  EXPECT_EQ(r.checkpoint.iterate, ckpt.iterate);
}

TEST_F(CheckpointFileTest, MissingFileIsMissingNotReject) {
  const LoadResult r =
      load_checkpoint(temp_path("stocdr_ckpt_never_written.bin"), "", 0);
  EXPECT_EQ(r.status, LoadStatus::kMissing);
  EXPECT_FALSE(is_reject(r.status));
}

TEST_F(CheckpointFileTest, GenerationPathsAreStable) {
  EXPECT_EQ(generation_path("ck.bin", 0), "ck.bin");
  EXPECT_EQ(generation_path("ck.bin", 1), "ck.bin.1");
  EXPECT_EQ(generation_path("ck.bin", 3), "ck.bin.3");
}

TEST_F(CheckpointFileTest, RotationKeepsTheNewestGenerations) {
  const std::string path = temp_path("stocdr_ckpt_rotate.bin");
  for (std::size_t g = 0; g < 4; ++g) {
    std::remove(generation_path(path, g).c_str());
  }
  Checkpoint ckpt = sample_checkpoint();
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ckpt.iteration = i;
    write_checkpoint(path, ckpt, /*keep_generations=*/2);
  }
  // Newest at `path`, previous at `path.1`, the first write rotated away.
  EXPECT_EQ(load_checkpoint(path, "", 0).checkpoint.iteration, 3u);
  EXPECT_EQ(load_checkpoint(generation_path(path, 1), "", 0)
                .checkpoint.iteration,
            2u);
  EXPECT_EQ(load_checkpoint(generation_path(path, 2), "", 0).status,
            LoadStatus::kMissing);
}

TEST_F(CheckpointFileTest, LoadLatestDegradesPastABadGeneration) {
  const std::string path = temp_path("stocdr_ckpt_degrade.bin");
  Checkpoint ckpt = sample_checkpoint();
  ckpt.iteration = 7;
  write_checkpoint(path, ckpt, 2);
  ckpt.iteration = 9;
  write_checkpoint(path, ckpt, 2);
  // Corrupt the newest generation; the scan must fall back to path.1.
  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  write_bytes(path, bytes);

  const RestoreScan scan =
      load_latest(path, 2, ckpt.config_hash, ckpt.iterate.size());
  ASSERT_EQ(scan.best.status, LoadStatus::kOk) << scan.best.detail;
  EXPECT_EQ(scan.best.checkpoint.iteration, 7u);
  EXPECT_EQ(scan.restored_path, generation_path(path, 1));
  EXPECT_EQ(scan.rejected, 1u);
  ASSERT_EQ(scan.reject_details.size(), 1u);
  EXPECT_NE(scan.reject_details[0].find(path), std::string::npos);
}

TEST_F(CheckpointFileTest, LoadLatestAllMissingIsAColdStart) {
  const RestoreScan scan =
      load_latest(temp_path("stocdr_ckpt_absent.bin"), 3, "", 0);
  EXPECT_EQ(scan.best.status, LoadStatus::kMissing);
  EXPECT_EQ(scan.rejected, 0u);
}

// --- robust solver integration ----------------------------------------------

TEST_F(CheckpointRestoreTest, SolvePersistsThenWarmRestarts) {
  const std::string path = temp_path("stocdr_ckpt_solver.bin");
  for (std::size_t g = 0; g < 4; ++g) {
    std::remove(generation_path(path, g).c_str());
  }
  const markov::MarkovChain chain(
      test::random_sparse_stochastic_pt(300, 6, 17));

  RobustOptions options;
  options.sentinel_stride = 1;    // snapshot on every progress event
  options.checkpoint_path = path;
  options.checkpoint_period = 1;  // persist every sentinel snapshot
  options.checkpoint_config_hash = "solver-itest-hash";
  const RobustResult first = solve_stationary_robust(chain, {}, options);
  ASSERT_TRUE(first.report.converged);
  EXPECT_FALSE(first.report.checkpoint_restored);
  ASSERT_GE(first.report.durable_checkpoints, 1u);
  EXPECT_EQ(first.report.checkpoint_write_failures, 0u);

  // Second solve under the same path + hash warm-starts from the file.
  const RobustResult second = solve_stationary_robust(chain, {}, options);
  ASSERT_TRUE(second.report.converged);
  EXPECT_TRUE(second.report.checkpoint_restored);
  EXPECT_GE(second.report.checkpoint_restore_iteration, 1u);
  EXPECT_FALSE(second.report.checkpoint_restore_path.empty());
  EXPECT_EQ(second.report.checkpoint_rejects, 0u);
  EXPECT_NE(second.report.summary().find("restored from"), std::string::npos)
      << second.report.summary();
  EXPECT_NE(second.report.to_json().find("\"durable_checkpoint\""),
            std::string::npos);
}

TEST_F(CheckpointRestoreTest, MismatchedHashColdStartsAndCountsTheReject) {
  const std::string path = temp_path("stocdr_ckpt_mismatch.bin");
  for (std::size_t g = 0; g < 4; ++g) {
    std::remove(generation_path(path, g).c_str());
  }
  const markov::MarkovChain chain(
      test::random_sparse_stochastic_pt(300, 6, 17));

  RobustOptions options;
  options.sentinel_stride = 1;
  options.checkpoint_path = path;
  options.checkpoint_period = 1;
  options.checkpoint_config_hash = "hash-of-run-one";
  ASSERT_TRUE(solve_stationary_robust(chain, {}, options).report.converged);

  options.checkpoint_config_hash = "hash-of-a-different-experiment";
  const RobustResult result = solve_stationary_robust(chain, {}, options);
  ASSERT_TRUE(result.report.converged);
  EXPECT_FALSE(result.report.checkpoint_restored);
  EXPECT_GE(result.report.checkpoint_rejects, 1u);
}

}  // namespace
}  // namespace stocdr::robust::ckpt
