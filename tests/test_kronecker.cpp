#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "kronecker/descriptor.hpp"
#include "kronecker/kron.hpp"
#include "parallel/pool.hpp"
#include "sparse/coo.hpp"
#include "sparse/gth.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace stocdr::kron {
namespace {

sparse::CsrMatrix random_matrix(std::size_t n, std::uint64_t seed,
                                double density = 0.5) {
  Rng rng(seed);
  sparse::CooBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform() < density) b.add(r, c, rng.uniform(-1, 1));
    }
  }
  return b.to_csr();
}

TEST(KroneckerProductTest, HandComputed2x2) {
  sparse::CooBuilder ab(2, 2);
  ab.add(0, 0, 1.0);
  ab.add(0, 1, 2.0);
  ab.add(1, 1, 3.0);
  const sparse::CsrMatrix a = ab.to_csr();
  sparse::CooBuilder bb(2, 2);
  bb.add(0, 0, 5.0);
  bb.add(1, 0, 7.0);
  const sparse::CsrMatrix b = bb.to_csr();
  const sparse::CsrMatrix c = kronecker_product(a, b);
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 5.0);    // a00*b00
  EXPECT_DOUBLE_EQ(c.at(1, 0), 7.0);    // a00*b10
  EXPECT_DOUBLE_EQ(c.at(0, 2), 10.0);   // a01*b00
  EXPECT_DOUBLE_EQ(c.at(1, 2), 14.0);   // a01*b10
  EXPECT_DOUBLE_EQ(c.at(2, 2), 15.0);   // a11*b00
  EXPECT_DOUBLE_EQ(c.at(3, 2), 21.0);   // a11*b10
  EXPECT_EQ(c.nnz(), 6u);
}

TEST(KroneckerProductTest, StochasticFactorsStayStochastic) {
  // The generators are stored transposed (column-stochastic), and the
  // Kronecker product preserves that: column sums stay 1.
  const sparse::CsrMatrix a = test::random_dense_stochastic_pt(3, 1);
  const sparse::CsrMatrix b = test::random_dense_stochastic_pt(4, 2);
  const sparse::CsrMatrix c = kronecker_product(a, b);
  for (const double s : c.col_sums()) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(KroneckerSumTest, MatchesDefinition) {
  const sparse::CsrMatrix a = random_matrix(2, 3);
  const sparse::CsrMatrix b = random_matrix(3, 4);
  const sparse::CsrMatrix sum = kronecker_sum(a, b);
  // A (+) B = A (x) I + I (x) B.
  const sparse::CsrMatrix left =
      kronecker_product(a, sparse::CsrMatrix::identity(3));
  const sparse::CsrMatrix right =
      kronecker_product(sparse::CsrMatrix::identity(2), b);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(sum.at(r, c), left.at(r, c) + right.at(r, c), 1e-14);
    }
  }
}

class DescriptorApplyTest
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(DescriptorApplyTest, ShuffleMatchesExplicitProduct) {
  const std::vector<std::size_t> dims = GetParam();
  KroneckerDescriptor descriptor(dims);
  Rng rng(55);
  for (int term = 0; term < 3; ++term) {
    KroneckerTerm t;
    t.coefficient = rng.uniform(-2, 2);
    for (std::size_t k = 0; k < dims.size(); ++k) {
      t.factors.push_back(
          random_matrix(dims[k], 100 * term + k + 1, 0.6));
    }
    descriptor.add_term(std::move(t));
  }
  const sparse::CsrMatrix explicit_d = descriptor.to_csr();
  std::vector<double> x(descriptor.dimension());
  for (double& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y1(x.size()), y2(x.size());
  descriptor.apply(x, y1);
  explicit_d.multiply(x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-11) << i;
  }
  // Transposed apply too.
  descriptor.apply_transpose(x, y1);
  explicit_d.transpose().multiply(x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-11) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DescriptorApplyTest,
    ::testing::Values(std::vector<std::size_t>{4},
                      std::vector<std::size_t>{2, 3},
                      std::vector<std::size_t>{3, 2, 4},
                      std::vector<std::size_t>{2, 2, 2, 3},
                      std::vector<std::size_t>{1, 5, 1}));

TEST(DescriptorTest, SingleFactorTermSkipsIdentities) {
  KroneckerDescriptor d({3, 4, 2});
  d.add_single_factor_term(2.0, 1, random_matrix(4, 9));
  EXPECT_EQ(d.num_terms(), 1u);
  const sparse::CsrMatrix explicit_d = d.to_csr();
  Rng rng(1);
  std::vector<double> x(24), y1(24), y2(24);
  for (double& v : x) v = rng.uniform(-1, 1);
  d.apply(x, y1);
  explicit_d.multiply(x, y2);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(DescriptorTest, IndependentChainsStationaryFactorizes) {
  // The TPM of two independent chains is P1 (x) P2; applying the descriptor
  // transpose in a power iteration must converge to the product stationary
  // distribution without ever forming the product matrix.
  const sparse::CsrMatrix p1t = test::random_dense_stochastic_pt(4, 61);
  const sparse::CsrMatrix p2t = test::random_dense_stochastic_pt(5, 62);
  // Descriptor holds P (row stochastic), i.e. the transposes of the above.
  KroneckerDescriptor d({4, 5});
  KroneckerTerm term;
  term.factors.push_back(p1t.transpose());
  term.factors.push_back(p2t.transpose());
  d.add_term(std::move(term));

  std::vector<double> x(20, 1.0 / 20), y(20);
  for (int it = 0; it < 500; ++it) {
    d.apply_transpose(x, y);  // x <- P^T x
    x.swap(y);
  }
  const auto eta1 = sparse::gth_stationary_transposed(p1t);
  const auto eta2 = sparse::gth_stationary_transposed(p2t);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(x[i * 5 + j], eta1[i] * eta2[j], 1e-10);
    }
  }
}

TEST(DescriptorTest, StorageFarBelowExplicit) {
  KroneckerDescriptor d({16, 16, 16});
  KroneckerTerm term;
  for (int k = 0; k < 3; ++k) {
    term.factors.push_back(test::random_dense_stochastic_pt(16, k + 1));
  }
  d.add_term(std::move(term));
  const std::size_t explicit_nnz = 16u * 16 * 16 * 16 * 16 * 16;
  EXPECT_LT(d.storage_bytes(),
            explicit_nnz * (sizeof(double) + sizeof(std::uint32_t)) / 100);
}

TEST(DescriptorTest, DiagonalMatchesExplicitProduct) {
  KroneckerDescriptor d({3, 4, 2});
  Rng rng(91);
  for (int term = 0; term < 3; ++term) {
    KroneckerTerm t;
    t.coefficient = rng.uniform(-2, 2);
    for (std::size_t k = 0; k < 3; ++k) {
      t.factors.push_back(random_matrix(d.dims()[k], 50 * term + k + 7, 0.7));
    }
    d.add_term(std::move(t));
  }
  const sparse::CsrMatrix explicit_d = d.to_csr();
  const std::vector<double> diag = d.diagonal();
  ASSERT_EQ(diag.size(), d.dimension());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    EXPECT_NEAR(diag[i], explicit_d.at(i, i), 1e-13) << i;
  }
}

TEST(DescriptorTest, ApplyBitIdenticalAcrossThreadCounts) {
  // The shuffle's lane decomposition must not change any accumulation
  // order: verify bitwise-equal outputs at several thread counts with the
  // parallel threshold forced to 1 element.
  KroneckerDescriptor d({6, 5, 7});
  Rng rng(17);
  for (int term = 0; term < 2; ++term) {
    KroneckerTerm t;
    t.coefficient = rng.uniform(-1, 1);
    for (std::size_t k = 0; k < 3; ++k) {
      t.factors.push_back(random_matrix(d.dims()[k], 30 * term + k + 3, 0.8));
    }
    d.add_term(std::move(t));
  }
  std::vector<double> x(d.dimension());
  for (double& v : x) v = rng.uniform(-1, 1);

  const std::size_t saved = par::min_parallel_work();
  par::set_min_parallel_work(1);
  std::vector<double> reference(x.size());
  {
    const par::ThreadScope scope(1);
    d.apply(x, reference);
  }
  for (const std::size_t threads : {2u, 3u, 7u, 16u}) {
    const par::ThreadScope scope(threads);
    std::vector<double> y(x.size()), yt(x.size()), yt_ref(x.size());
    d.apply(x, y);
    EXPECT_EQ(std::memcmp(y.data(), reference.data(),
                          y.size() * sizeof(double)),
              0)
        << threads << " threads";
    d.apply_transpose(x, yt);
    {
      const par::ThreadScope serial(1);
      d.apply_transpose(x, yt_ref);
    }
    EXPECT_EQ(std::memcmp(yt.data(), yt_ref.data(),
                          yt.size() * sizeof(double)),
              0)
        << threads << " threads (transpose)";
  }
  par::set_min_parallel_work(saved);
}

// --- specialised mode kernels pinned to the generic shuffle ----------------

/// The generic shuffle of one mode, every base block streamed along the
/// right index with each partial sum kept in `out`: the loop the
/// descriptor ran for all modes before the right == 1 (phase) mode became
/// a register-accumulating CSR SpMV.  Its tiling over the right index is
/// left out; it changes no element's accumulation order.
void reference_mode(const sparse::CsrMatrix& m, bool transpose,
                    std::size_t left, std::size_t right, const double* in,
                    double* out) {
  const std::size_t n = m.rows();
  const std::size_t block = n * right;
  for (std::size_t l = 0; l < left; ++l) {
    const double* src = in + l * block;
    double* base = out + l * block;
    if (!transpose) {
      for (std::size_t i = 0; i < n; ++i) {
        double* dst = base + i * right;
        std::fill(dst, dst + right, 0.0);
        const auto cols = m.row_cols(i);
        const auto vals = m.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const double v = vals[k];
          const double* row = src + cols[k] * right;
          for (std::size_t r = 0; r < right; ++r) dst[r] += v * row[r];
        }
      }
      continue;
    }
    std::fill(base, base + block, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = src + i * right;
      const auto cols = m.row_cols(i);
      const auto vals = m.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const double v = vals[k];
        double* dst = base + cols[k] * right;
        for (std::size_t r = 0; r < right; ++r) dst[r] += v * row[r];
      }
    }
  }
}

bool is_unit_identity(const sparse::CsrMatrix& m) {
  if (m.nnz() != m.rows()) return false;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (m.at(i, i) != 1.0) return false;
  }
  return true;
}

/// y = sum_t c_t (x)_k F_tk x (or its transpose) by the generic shuffle,
/// skipping identity factors as the descriptor does.
std::vector<double> reference_apply(const std::vector<std::size_t>& dims,
                                    const std::vector<KroneckerTerm>& terms,
                                    bool transpose,
                                    const std::vector<double>& x) {
  std::vector<double> y(x.size(), 0.0), a(x.size()), b(x.size());
  for (const KroneckerTerm& term : terms) {
    const double* src = x.data();
    std::size_t left = 1;
    for (std::size_t k = 0; k < dims.size(); ++k) {
      const std::size_t right = x.size() / (left * dims[k]);
      if (!is_unit_identity(term.factors[k])) {
        double* out = src == a.data() ? b.data() : a.data();
        reference_mode(term.factors[k], transpose, left, right, src, out);
        src = out;
      }
      left *= dims[k];
    }
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] += term.coefficient * src[i];
    }
  }
  return y;
}

enum class FactorShape { kRandom, kZeroRow, kDiagonal };

/// A random square factor with entries of magnitude in [0.5, 1.5) (so never
/// the identity); kZeroRow leaves row n/2 empty, kDiagonal keeps only the
/// diagonal.
sparse::CsrMatrix shaped_factor(std::size_t n, std::uint64_t seed,
                                FactorShape shape) {
  Rng rng(seed);
  sparse::CooBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    if (shape == FactorShape::kZeroRow && r == n / 2) continue;
    for (std::size_t c = 0; c < n; ++c) {
      const bool keep = shape == FactorShape::kDiagonal ? c == r
                                                        : rng.uniform() < 0.6;
      if (keep) {
        b.add(r, c, rng.uniform(0.5, 1.5) * (rng.uniform() < 0.5 ? -1 : 1));
      }
    }
  }
  return b.to_csr();
}

TEST(DescriptorTest, ModeKernelsMatchGenericShuffleBitForBit) {
  // Last factor never the identity, so every term runs the right == 1
  // kernel; the shapes also cover a mode tiled along right (> 2048), a
  // size-1 dimension, a single-factor descriptor (left == right == 1) and
  // identity factors the descriptor skips.
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 5, 600}, {4, 1, 6}, {7}, {2, 3, 4, 5}};
  const FactorShape shapes_by_term[] = {
      FactorShape::kRandom, FactorShape::kRandom, FactorShape::kDiagonal,
      FactorShape::kZeroRow};
  const std::size_t saved = par::min_parallel_work();
  par::set_min_parallel_work(1);
  std::uint64_t seed = 400;
  for (const std::vector<std::size_t>& dims : shapes) {
    std::vector<KroneckerTerm> terms;
    Rng rng(seed);
    for (int t = 0; t < 4; ++t) {
      KroneckerTerm term;
      term.coefficient = rng.uniform(-2, 2);
      for (std::size_t k = 0; k < dims.size(); ++k) {
        const std::size_t n = dims[k];
        if (t == 1 && k + 1 < dims.size()) {
          term.factors.push_back(sparse::CsrMatrix::identity(n));
        } else {
          term.factors.push_back(shaped_factor(n, ++seed, shapes_by_term[t]));
        }
      }
      terms.push_back(term);
    }
    KroneckerDescriptor d(dims);
    for (const KroneckerTerm& term : terms) d.add_term(term);
    std::vector<double> x(d.dimension());
    for (double& v : x) v = rng.uniform(-1, 1);
    const std::vector<double> ref = reference_apply(dims, terms, false, x);
    const std::vector<double> ref_t = reference_apply(dims, terms, true, x);
    for (const std::size_t lanes : {1u, 2u, 7u}) {
      const par::ThreadScope scope(lanes);
      std::vector<double> y(x.size()), yt(x.size());
      d.apply(x, y);
      d.apply_transpose(x, yt);
      // Every entry is compared; only the first differing one is reported.
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (y[i] == ref[i] && yt[i] == ref_t[i]) continue;
        EXPECT_EQ(y[i], ref[i]) << "apply entry " << i << ", " << lanes
                                << " lanes, " << dims.size() << " dims";
        EXPECT_EQ(yt[i], ref_t[i]) << "apply_transpose entry " << i << ", "
                                   << lanes << " lanes, " << dims.size()
                                   << " dims";
        break;
      }
      EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(double)),
                0);
      EXPECT_EQ(
          std::memcmp(yt.data(), ref_t.data(), yt.size() * sizeof(double)),
          0);
    }
  }
  par::set_min_parallel_work(saved);
}

TEST(DescriptorTest, RejectsDegenerateDimensions) {
  EXPECT_THROW(KroneckerDescriptor({}), PreconditionError);
  EXPECT_THROW(KroneckerDescriptor({3, 0, 2}), PreconditionError);
  EXPECT_THROW(KroneckerDescriptor({0}), PreconditionError);
  // An empty term list cannot be materialized.
  KroneckerDescriptor empty({2, 2});
  EXPECT_THROW((void)empty.to_csr(), PreconditionError);
  KroneckerTerm no_factors;
  EXPECT_THROW(empty.add_term(std::move(no_factors)), PreconditionError);
}

TEST(DescriptorTest, ValidatesShapes) {
  KroneckerDescriptor d({2, 3});
  KroneckerTerm bad;
  bad.factors.push_back(random_matrix(2, 1));
  EXPECT_THROW(d.add_term(std::move(bad)), PreconditionError);
  KroneckerTerm wrong;
  wrong.factors.push_back(random_matrix(2, 1));
  wrong.factors.push_back(random_matrix(4, 1));
  EXPECT_THROW(d.add_term(std::move(wrong)), PreconditionError);
  EXPECT_THROW(KroneckerDescriptor({}), PreconditionError);
  EXPECT_THROW(d.add_single_factor_term(1.0, 5, random_matrix(2, 1)),
               PreconditionError);
  std::vector<double> x(6), y(5);
  EXPECT_THROW(d.apply(x, y), PreconditionError);
}

}  // namespace
}  // namespace stocdr::kron
