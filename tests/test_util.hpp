// Shared fixtures and generators for the stocdr test suite.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "markov/chain.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace stocdr::test {

/// A dense random row-stochastic matrix with strictly positive entries
/// (hence irreducible and aperiodic), returned in the library's transposed
/// CSR orientation.
inline sparse::CsrMatrix random_dense_stochastic_pt(std::size_t n,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  sparse::CooBuilder builder(n, n);
  std::vector<double> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = 0.05 + rng.uniform();  // bounded away from zero
      sum += row[j];
    }
    for (std::size_t j = 0; j < n; ++j) {
      builder.add(j, i, row[j] / sum);  // transposed: (dst, src)
    }
  }
  return builder.to_csr();
}

/// A sparse random stochastic matrix: each state has `fanout` random
/// successors plus a guaranteed edge to (i+1) mod n, making it irreducible.
inline sparse::CsrMatrix random_sparse_stochastic_pt(std::size_t n,
                                                     std::size_t fanout,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  sparse::CooBuilder builder(n, n);
  std::vector<std::size_t> dst(fanout + 1);
  std::vector<double> w(fanout + 1);
  for (std::size_t i = 0; i < n; ++i) {
    dst[0] = (i + 1) % n;  // ring edge guarantees irreducibility
    for (std::size_t k = 1; k <= fanout; ++k) dst[k] = rng.below(n);
    double sum = 0.0;
    for (std::size_t k = 0; k <= fanout; ++k) {
      w[k] = 0.1 + rng.uniform();
      sum += w[k];
    }
    for (std::size_t k = 0; k <= fanout; ++k) {
      builder.add(dst[k], i, w[k] / sum);
    }
  }
  return builder.to_csr();
}

/// Birth-death chain on {0..n-1}: up probability p, down probability q,
/// stay 1-p-q (boundaries stay instead of leaving).  The stationary
/// distribution is geometric with ratio p/q.
inline sparse::CsrMatrix birth_death_pt(std::size_t n, double p, double q) {
  sparse::CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double stay = 1.0 - p - q;
    if (i == 0) {
      stay += q;
    } else {
      builder.add(i - 1, i, q);
    }
    if (i + 1 == n) {
      stay += p;
    } else {
      builder.add(i + 1, i, p);
    }
    builder.add(i, i, stay);
  }
  return builder.to_csr();
}

/// The closed-form stationary distribution of birth_death_pt.
inline std::vector<double> birth_death_stationary(std::size_t n, double p,
                                                  double q) {
  std::vector<double> eta(n);
  const double r = p / q;
  double v = 1.0, sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    eta[i] = v;
    sum += v;
    v *= r;
  }
  for (double& e : eta) e /= sum;
  return eta;
}

/// The path prefix under ::testing::TempDir() that no other test process
/// shares.  ctest runs every test of a binary as its own process out of one
/// directory, and two builds' suites may run side by side, so the name
/// carries the pid and the running test's name.
inline std::string unique_temp_prefix() {
  std::string name = "stocdr_" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + name + "_";
}

/// A path for `file` under the running test's unique_temp_prefix().
inline std::string unique_temp_path(const std::string& file) {
  return unique_temp_prefix() + file;
}

/// Fixture base that removes every file starting with the test's
/// unique_temp_prefix() when the test ends, so the files a test derives
/// from its own paths go too: checkpoint generations (`<path>.1`), sweep
/// artifacts, and writer temporaries (`<path>.<pid>.tmp`).
class TempFilesTest : public ::testing::Test {
 protected:
  ~TempFilesTest() override {
    const std::filesystem::path prefix = unique_temp_prefix();
    const std::string stem = prefix.filename().string();
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(prefix.parent_path(), ec)) {
      if (entry.path().filename().string().rfind(stem, 0) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
};

/// L1 distance between two vectors.
inline double l1(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return s;
}

}  // namespace stocdr::test
