#include "sparse/io.hpp"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"

namespace stocdr::sparse {
namespace {

TEST(MatrixMarketTest, WriteReadRoundTrip) {
  const CsrMatrix original = test::random_sparse_stochastic_pt(23, 3, 9);
  std::stringstream stream;
  write_matrix_market(stream, original, "round trip test");
  const CsrMatrix parsed = read_matrix_market(stream);
  EXPECT_EQ(parsed.rows(), original.rows());
  EXPECT_EQ(parsed.cols(), original.cols());
  ASSERT_EQ(parsed.nnz(), original.nnz());
  original.for_each([&parsed](std::size_t r, std::size_t c, double v) {
    EXPECT_DOUBLE_EQ(parsed.at(r, c), v);
  });
}

TEST(MatrixMarketTest, ValuesSurviveAtFullPrecision) {
  CooBuilder b(1, 2);
  b.add(0, 0, 1.0 / 3.0);
  b.add(0, 1, 1e-300);
  std::stringstream stream;
  write_matrix_market(stream, b.to_csr());
  const CsrMatrix parsed = read_matrix_market(stream);
  EXPECT_DOUBLE_EQ(parsed.at(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(parsed.at(0, 1), 1e-300);
}

TEST(MatrixMarketTest, ParsesCommentsAndBlankLines) {
  std::stringstream stream(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "\n"
      "2 3 2\n"
      "% another comment\n"
      "1 1 0.5\n"
      "2 3 -1.25\n");
  const CsrMatrix m = read_matrix_market(stream);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.25);
}

TEST(MatrixMarketTest, SumsDuplicates) {
  std::stringstream stream(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 0.25\n"
      "1 1 0.5\n");
  const CsrMatrix m = read_matrix_market(stream);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.75);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(MatrixMarketTest, RejectsMalformedInput) {
  {
    std::stringstream s("not a matrix market file\n");
    EXPECT_THROW((void)read_matrix_market(s), PreconditionError);
  }
  {
    std::stringstream s(
        "%%MatrixMarket matrix coordinate complex general\n2 2 0\n");
    EXPECT_THROW((void)read_matrix_market(s), PreconditionError);
  }
  {
    std::stringstream s(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 0.5\n");
    EXPECT_THROW((void)read_matrix_market(s), PreconditionError);
  }
  {
    std::stringstream s(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.5\n");
    EXPECT_THROW((void)read_matrix_market(s), PreconditionError);  // truncated
  }
}

TEST(MatrixMarketTest, FileRoundTrip) {
  const CsrMatrix original = test::birth_death_pt(6, 0.3, 0.2);
  const std::string path = test::unique_temp_path("io_test.mtx");
  write_matrix_market_file(path, original, "birth death");
  const CsrMatrix parsed = read_matrix_market_file(path);
  EXPECT_TRUE(parsed.equals(original));
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/q.mtx"),
               PreconditionError);
  std::remove(path.c_str());
}

TEST(VectorMarketTest, RoundTrip) {
  const std::vector<double> v{0.25, -1.0, 3.5e-12, 0.0};
  std::stringstream stream;
  write_vector_market(stream, v, "test vector");
  const auto parsed = read_vector_market(stream);
  ASSERT_EQ(parsed.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i], v[i]);
  }
}

TEST(VectorMarketTest, RejectsMatrixShapedArray) {
  std::stringstream stream(
      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW((void)read_vector_market(stream), PreconditionError);
}

}  // namespace
}  // namespace stocdr::sparse
