// Seeded workload generator of the benchmark.
//
// Every workload is a fixed list of strata from the paper's Figure 4/5
// operating-point family (bench/common.hpp: 16 VCO phases, transition
// density 0.5, n_r bounded at 3x its mean).  A stratum fixes the discrete
// knobs that set the chain size (grid, counter length, SONET run length);
// the seed jitters sigma_nw inside a narrow band.  So one seed always yields the same points, and
// different seeds yield different points of nearly equal work, which keeps
// the run-to-run spread across seeds small.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdr/config.hpp"
#include "cdr/config_io.hpp"
#include "support/rng.hpp"

namespace perfbench {

/// How one workload's points are solved.
enum class Pipeline {
  kExplicit,    ///< compose -> hierarchy -> multilevel -> measures (+ lambda2)
  kMatrixFree,  ///< Kronecker descriptor -> robust operator ladder -> measures
  kPassage,     ///< explicit stationary solve -> three first-passage solves
};

struct Workload {
  std::string name;
  Pipeline pipeline = Pipeline::kExplicit;
};

struct Point {
  std::string key;    ///< "<workload>/<index>"
  std::string hash;   ///< FNV-1a of the full config text
  stocdr::cdr::CdrConfig config;
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"explicit_sweep", Pipeline::kExplicit},
      {"matrix_free", Pipeline::kMatrixFree},
      {"slip_passage", Pipeline::kPassage},
  };
  return all;
}

inline const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// FNV-1a, kept here rather than taken from src/obs so that the benchmark
/// does not depend on the telemetry layer it must leave switched off.
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string fnv1a_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

/// Largest mean drift (UI/cycle) the loop tracks: one VCO step per counter
/// overflow, with ~0.53 transitions per bit (transition density 0.5 plus
/// the forced SONET transitions).
inline double tracking_limit(const stocdr::cdr::CdrConfig& c) {
  return 0.53 * c.phase_step_ui() / static_cast<double>(c.counter_length);
}

namespace detail {

/// One point's knobs.  The seed draws sigma_nw within +-3% (log scale) of
/// `sigma`; n_r is fixed as a fraction of the loop's tracking limit,
/// because its grid quantization sets the chain's sparsity pattern and a
/// drawn n_r would change the transition count (and peak RSS) by seed.
struct Stratum {
  std::size_t phase_points;
  std::size_t counter_length;
  std::size_t max_run_length;
  double sigma;
  double drift;
};

/// Strata per pipeline.  The bands were chosen so that each point's solver
/// path and iteration counts are stable across seeds: the explicit points
/// stay on plain V-cycles (counter 12 and 16 at M = 512 escalate to
/// W-cycles, 5-35 s per point, depending on the draw), and the first-passage
/// points keep n_r close enough to the tracking limit that slips are
/// frequent and the passage systems converge.
inline std::vector<Stratum> strata(Pipeline p) {
  switch (p) {
    case Pipeline::kExplicit:  // 14k-61k reachable states
      return {{512, 4, 4, 0.012, 0.4},
              {512, 6, 8, 0.02, 0.4},
              {512, 8, 8, 0.05, 0.4},
              {512, 10, 4, 0.03, 0.4}};
    case Pipeline::kMatrixFree:  // deep SONET run lengths, 14k-43k states
      return {{256, 4, 8, 0.05, 0.3},
              {256, 4, 16, 0.03, 0.3},
              {256, 4, 24, 0.03, 0.3}};
    case Pipeline::kPassage:  // as bench/cycle_slips: M = 256, sigma ~0.08
      return {{256, 8, 8, 0.08, 0.78},
              {256, 8, 8, 0.08, 0.9}};
  }
  return {};
}

}  // namespace detail

/// The workload's points for `seed`, in a fixed stratum order (a seeded
/// order would make the allocator's high-water mark depend on the seed).
inline std::vector<Point> generate(const Workload& w, std::uint64_t seed) {
  stocdr::Rng rng(seed ^ fnv1a(w.name));
  std::vector<Point> points;
  for (const detail::Stratum& s : detail::strata(w.pipeline)) {
    stocdr::cdr::CdrConfig c;
    c.phase_points = s.phase_points;
    c.vco_phases = 16;
    c.transition_density = 0.5;
    c.counter_length = s.counter_length;
    c.max_run_length = s.max_run_length;
    c.sigma_nw = s.sigma * std::exp(rng.uniform(-0.03, 0.03));
    c.nr_mean = s.drift * tracking_limit(c);
    c.nr_max = 3.0 * c.nr_mean;
    c.validate();
    points.push_back({w.name + "/" + std::to_string(points.size()),
                      fnv1a_hex(stocdr::cdr::to_text(c)), c});
  }
  return points;
}

/// A small operating point (~1k reachable states) for the GTH differential
/// check: large enough for real V-cycles (coarsest level is 400 states),
/// small enough for dense O(n^3) GTH.
inline stocdr::cdr::CdrConfig small_twin(std::uint64_t seed) {
  stocdr::Rng rng(seed ^ 0x5eedf00dull);
  stocdr::cdr::CdrConfig c;
  c.phase_points = 64;
  c.vco_phases = 16;
  c.counter_length = 3;
  c.max_run_length = 4;
  c.sigma_nw = rng.uniform(0.03, 0.12);
  c.nr_mean = rng.uniform(0.3, 0.6) * tracking_limit(c);
  c.nr_max = 3.0 * c.nr_mean;
  c.validate();
  return c;
}

}  // namespace perfbench
