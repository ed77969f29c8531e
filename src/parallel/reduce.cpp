#include "parallel/reduce.hpp"

#include <cmath>
#include <vector>

#include "parallel/pool.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace stocdr::par {

namespace {

/// Shared parallel skeleton: per-lane partials (each produced by the serial
/// kernel on its contiguous range) combined in ascending lane order.
template <typename LaneFn>
double lanewise(std::size_t n, const LaneFn& lane_fn, std::size_t lanes) {
  std::vector<double> partials(lanes, 0.0);
  run_lanes(lanes, [&](std::size_t lane) {
    const Range r = even_range(n, lanes, lane);
    partials[lane] = lane_fn(r.begin, r.end);
  });
  double acc = 0.0;
  for (const double p : partials) acc += p;
  return acc;
}

}  // namespace

double sum(std::span<const double> values) {
  const std::size_t lanes = lanes_for(values.size());
  if (lanes <= 1) return kahan_sum(values);
  return lanewise(
      values.size(),
      [&](std::size_t b, std::size_t e) {
        return kahan_sum(values.subspan(b, e - b));
      },
      lanes);
}

double l1_norm(std::span<const double> values) {
  const std::size_t lanes = lanes_for(values.size());
  if (lanes <= 1) return stocdr::l1_norm(values);
  return lanewise(
      values.size(),
      [&](std::size_t b, std::size_t e) {
        return stocdr::l1_norm(values.subspan(b, e - b));
      },
      lanes);
}

double l1_distance(std::span<const double> a, std::span<const double> b) {
  STOCDR_REQUIRE(a.size() == b.size(), "l1_distance requires equal sizes");
  const std::size_t lanes = lanes_for(a.size());
  if (lanes <= 1) return stocdr::l1_distance(a, b);
  return lanewise(
      a.size(),
      [&](std::size_t begin, std::size_t end) {
        double s = 0.0;
        for (std::size_t i = begin; i < end; ++i) s += std::abs(a[i] - b[i]);
        return s;
      },
      lanes);
}

double dot(std::span<const double> a, std::span<const double> b) {
  STOCDR_REQUIRE(a.size() == b.size(), "dot requires equal sizes");
  // Four interleaved partial sums break the one add chain a single
  // accumulator serializes on; the remainder joins s0 before the fixed
  // (s0 + s1) + (s2 + s3) combine.
  const auto lane_dot = [pa = a.data(), pb = b.data()](std::size_t begin,
                                                       std::size_t end) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = begin;
    for (; i + 4 <= end; i += 4) {
      s0 += pa[i] * pb[i];
      s1 += pa[i + 1] * pb[i + 1];
      s2 += pa[i + 2] * pb[i + 2];
      s3 += pa[i + 3] * pb[i + 3];
    }
    for (; i < end; ++i) s0 += pa[i] * pb[i];
    return (s0 + s1) + (s2 + s3);
  };
  const std::size_t lanes = lanes_for(a.size());
  if (lanes <= 1) return lane_dot(0, a.size());
  return lanewise(a.size(), lane_dot, lanes);
}

double l2_norm(std::span<const double> values) {
  return std::sqrt(dot(values, values));
}

double linf_norm(std::span<const double> values) {
  const auto lane_max = [&](std::size_t begin, std::size_t end) {
    double m = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      m = std::max(m, std::abs(values[i]));
    }
    return m;
  };
  const std::size_t lanes = lanes_for(values.size());
  if (lanes <= 1) return lane_max(0, values.size());
  std::vector<double> partials(lanes, 0.0);
  run_lanes(lanes, [&](std::size_t lane) {
    const Range r = even_range(values.size(), lanes, lane);
    partials[lane] = lane_max(r.begin, r.end);
  });
  double m = 0.0;
  for (const double p : partials) m = std::max(m, p);
  return m;
}

void normalize_l1(std::span<double> values) {
  const std::size_t lanes = lanes_for(values.size());
  if (lanes <= 1) {
    stocdr::normalize_l1(values);
    return;
  }
  const double mass = sum({values.data(), values.size()});
  if (!(mass > 0.0) || !std::isfinite(mass)) {
    throw NumericalError("normalize_l1: vector sum is zero or non-finite");
  }
  parallel_for(values.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) values[i] /= mass;
  });
}

}  // namespace stocdr::par
