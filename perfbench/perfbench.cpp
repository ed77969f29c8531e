// stocdr_perfbench — the repository benchmark's single-process driver.
//
//   stocdr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE] [--setup-only]
//
// Generates the workload's CDR operating points from the seed (see
// workloads.hpp) and runs them config-in -> measures-out through the
// library's public calls, as a closed loop: one caller, points back to
// back, whole sweeps (passes) repeated until S seconds have elapsed.
// Every point's outputs are checked outside the timed region, and once per
// run a differential oracle solves a shared point through both
// representations and a small point through GTH.  The last stdout line is
// one JSON object; the exit code is 1 when any check failed.
//
// The library's own telemetry (STOCDR_* variables) must be off: the driver
// refuses to run when any STOCDR_ variable is set.  With --trace 1 the
// passes alternate untraced / traced; the traced passes record the
// benchmark's own spans around each public call (spans.hpp) and the
// per-layer metrics come from them.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/eigen.hpp"
#include "cdr/kron_model.hpp"
#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "parallel/pool.hpp"
#include "robust/robust_solver.hpp"
#include "solvers/aggregation.hpp"
#include "sparse/gth.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace cdr = stocdr::cdr;

/// L1 stationary residual a point's eta must meet (the solvers target
/// 1e-12; this leaves room for the recomputation's own rounding).
constexpr double kResidualTolerance = 1e-10;
/// A tail measure (BER, slip flux) is resolvable only above this multiple
/// of the larger L1 residual of the two solutions being compared; both
/// solutions are within ~(mixing time) x residual of the true eta in L1.
constexpr double kFloorFactor = 1e5;
/// |lambda_2| by deflated power iteration, as a fixed-budget estimate: the
/// iteration stalls on some points of the family (cdr_analyzer's 1e-7 /
/// 50000 takes up to a minute there), and at this tolerance its stopping
/// test can accept a transient estimate above 1.  So the estimate is only
/// checked to be finite and positive; its iteration count is one of the
/// point's work counts.
constexpr double kLambda2Tolerance = 1e-4;
constexpr std::size_t kLambda2MaxIterations = 300;
/// First-passage bands, as in bench/cycle_slips and the measures' defaults.
constexpr double kSlipBandUi = 0.4;
constexpr double kLockBandUi = 0.1;

struct Measures {
  double ber = 0.0;
  double slip_up = 0.0;
  double slip_down = 0.0;
  double mean = 0.0;
  double rms = 0.0;
  double lambda2 = 0.0;
  double passage_cycles = 0.0;
  double prob_up = 0.0;
  double lock_bits = 0.0;
};

/// Exact work counts of one point; identical on every pass of one seed.
struct Counts {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t ml_cycles = 0;
  std::uint64_t ml_matvecs = 0;
  std::uint64_t lambda2_iterations = 0;
  std::uint64_t passage_solves = 0;
  std::uint64_t passage_converged = 0;
  std::uint64_t passage_iterations = 0;
  std::uint64_t passage_matvecs = 0;
  std::uint64_t kron_states = 0;
  std::uint64_t factor_bytes = 0;
  std::uint64_t robust_matvecs = 0;
  std::uint64_t rungs_attempted = 0;
  std::uint64_t rungs_converged = 0;
  bool operator==(const Counts&) const = default;

  Counts& operator+=(const Counts& o) {
    states += o.states;
    transitions += o.transitions;
    ml_cycles += o.ml_cycles;
    ml_matvecs += o.ml_matvecs;
    lambda2_iterations += o.lambda2_iterations;
    passage_solves += o.passage_solves;
    passage_converged += o.passage_converged;
    passage_iterations += o.passage_iterations;
    passage_matvecs += o.passage_matvecs;
    kron_states += o.kron_states;
    factor_bytes += o.factor_bytes;
    robust_matvecs += o.robust_matvecs;
    rungs_attempted += o.rungs_attempted;
    rungs_converged += o.rungs_converged;
    return *this;
  }

  [[nodiscard]] std::string text() const {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "states=%llu transitions=%llu ml_cycles=%llu ml_matvecs=%llu "
        "lambda2_its=%llu passage=%llu/%llu passage_its=%llu "
        "passage_matvecs=%llu kron_states=%llu factor_bytes=%llu "
        "robust_matvecs=%llu rungs=%llu/%llu",
        static_cast<unsigned long long>(states),
        static_cast<unsigned long long>(transitions),
        static_cast<unsigned long long>(ml_cycles),
        static_cast<unsigned long long>(ml_matvecs),
        static_cast<unsigned long long>(lambda2_iterations),
        static_cast<unsigned long long>(passage_converged),
        static_cast<unsigned long long>(passage_solves),
        static_cast<unsigned long long>(passage_iterations),
        static_cast<unsigned long long>(passage_matvecs),
        static_cast<unsigned long long>(kron_states),
        static_cast<unsigned long long>(factor_bytes),
        static_cast<unsigned long long>(robust_matvecs),
        static_cast<unsigned long long>(rungs_converged),
        static_cast<unsigned long long>(rungs_attempted));
    return buf;
  }
};

/// One solved point; owns what the output checks need after the timed
/// region (the model, the chain or descriptor, and eta).
struct Solved {
  std::unique_ptr<cdr::CdrModel> model;
  std::optional<cdr::CdrChain> chain;
  std::unique_ptr<cdr::KroneckerCdrModel> kron;
  std::vector<double> eta;
  bool converged = false;
  Measures m;
  Counts c;
};

Measures explicit_measures(const Solved& s, const std::vector<double>& eta) {
  Measures m;
  m.ber = cdr::bit_error_rate(*s.model, *s.chain, eta);
  const cdr::SlipStats slips = cdr::slip_stats(*s.model, *s.chain, eta);
  m.slip_up = slips.rate_up;
  m.slip_down = slips.rate_down;
  const cdr::PhaseErrorMoments mom =
      cdr::phase_error_moments(*s.model, *s.chain, eta);
  m.mean = mom.mean;
  m.rms = mom.rms;
  return m;
}

Solved solve_explicit(const cdr::CdrConfig& config, SpanRecorder& rec,
                      bool lambda2, bool passage) {
  Solved s;
  {
    Span span(rec, "cdr.model");
    s.model = std::make_unique<cdr::CdrModel>(config);
  }
  {
    Span span(rec, "fsm.compose");
    s.chain.emplace(s.model->build());
  }
  std::vector<stocdr::markov::Partition> hierarchy;
  {
    Span span(rec, "markov.hierarchy");
    hierarchy = s.chain->hierarchy();
  }
  stocdr::solvers::StationaryResult st;
  {
    Span span(rec, "solvers.multilevel");
    st = stocdr::solvers::solve_stationary_multilevel(s.chain->chain(),
                                                      hierarchy);
  }
  s.eta = std::move(st.distribution);
  s.converged = st.stats.converged;
  s.c.states = s.chain->num_states();
  s.c.transitions = s.chain->chain().num_transitions();
  s.c.ml_cycles = st.stats.iterations;
  s.c.ml_matvecs = st.stats.matvec_count;
  {
    Span span(rec, "cdr.measures");
    s.m = explicit_measures(s, s.eta);
  }
  if (lambda2) {
    Span span(rec, "analysis.lambda2");
    const auto l2 = stocdr::analysis::subdominant_eigenvalue(
        s.chain->chain(), s.eta, kLambda2Tolerance, kLambda2MaxIterations);
    s.m.lambda2 = l2.magnitude;
    s.c.lambda2_iterations = l2.iterations;
  }
  if (passage) {
    const auto account = [&s](const stocdr::solvers::SolverStats& stats) {
      ++s.c.passage_solves;
      s.c.passage_converged += stats.converged ? 1 : 0;
      s.c.passage_iterations += stats.iterations;
      s.c.passage_matvecs += stats.matvec_count;
    };
    {
      Span span(rec, "solvers.passage");
      const cdr::SlipPassage r =
          cdr::mean_time_to_boundary(*s.model, *s.chain, s.eta, kSlipBandUi);
      s.m.passage_cycles = r.mean_cycles_from_lock;
      account(r.stats);
    }
    {
      Span span(rec, "solvers.passage");
      const cdr::SlipDirection r = cdr::slip_direction_probability(
          *s.model, *s.chain, s.eta, kSlipBandUi);
      s.m.prob_up = r.probability_up;
      account(r.stats);
    }
    {
      Span span(rec, "solvers.passage");
      const cdr::LockTime r =
          cdr::mean_time_to_lock(*s.model, *s.chain, kLockBandUi);
      s.m.lock_bits = r.mean_bits_from_worst_case;
      account(r.stats);
    }
  }
  return s;
}

Solved solve_matrix_free(const cdr::CdrConfig& config, SpanRecorder& rec) {
  Solved s;
  {
    Span span(rec, "cdr.model");
    s.model = std::make_unique<cdr::CdrModel>(config);
  }
  {
    Span span(rec, "kronecker.descriptor");
    s.kron = std::make_unique<cdr::KroneckerCdrModel>(*s.model);
  }
  stocdr::robust::RobustResult r;
  {
    Span span(rec, "robust.ladder");
    r = cdr::solve_stationary_robust(*s.kron);
  }
  s.eta = std::move(r.distribution);
  s.converged = r.report.converged;
  s.c.kron_states = s.kron->num_states();
  s.c.factor_bytes = s.kron->storage_bytes();
  for (const stocdr::robust::RungReport& rung : r.report.rungs) {
    if (rung.failure == stocdr::robust::FailureCause::kSkipped) continue;
    ++s.c.rungs_attempted;
    s.c.rungs_converged +=
        rung.failure == stocdr::robust::FailureCause::kNone ? 1 : 0;
    s.c.robust_matvecs += rung.stats.matvec_count;
  }
  {
    Span span(rec, "cdr.measures");
    s.m.ber = s.kron->bit_error_rate(s.eta);
    const cdr::SlipStats slips = s.kron->slip_stats(s.eta);
    s.m.slip_up = slips.rate_up;
    s.m.slip_down = slips.rate_down;
    const cdr::PhaseErrorMoments mom = s.kron->phase_error_moments(s.eta);
    s.m.mean = mom.mean;
    s.m.rms = mom.rms;
  }
  return s;
}

Solved solve_point(const Workload& w, const cdr::CdrConfig& config,
                   SpanRecorder& rec) {
  switch (w.pipeline) {
    case Pipeline::kExplicit:
      return solve_explicit(config, rec, /*lambda2=*/true, /*passage=*/false);
    case Pipeline::kMatrixFree:
      return solve_matrix_free(config, rec);
    case Pipeline::kPassage:
      return solve_explicit(config, rec, /*lambda2=*/false, /*passage=*/true);
  }
  return {};
}

/// ||P^T eta - eta||_1, recomputed with the point's own operator.
double l1_residual(const Solved& s, const std::vector<double>& eta) {
  std::vector<double> y(eta.size());
  if (s.chain) {
    s.chain->chain().step(eta, y);
  } else {
    s.kron->descriptor().apply(eta, y);
  }
  double r = 0.0;
  for (std::size_t i = 0; i < eta.size(); ++i) r += std::abs(y[i] - eta[i]);
  return r;
}

bool finite_in(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

/// Checks every pipeline shares: eta is a converged probability vector
/// with a small recomputed residual, and the stationary measures are in
/// range.  "" when it passes, else the first failure.
std::string check_stationary(const Solved& s) {
  if (!s.converged) return "stationary solve did not converge";
  double sum = 0.0;
  for (const double v : s.eta) {
    if (!(v >= 0.0) || !std::isfinite(v)) {
      return "eta has a negative or non-finite entry";
    }
    sum += v;
  }
  if (std::abs(sum - 1.0) > 1e-10) return "eta does not sum to 1";
  const double res = l1_residual(s, s.eta);
  if (!(res <= kResidualTolerance)) {
    return "L1 residual " + std::to_string(res) + " above tolerance";
  }
  const Measures& m = s.m;
  if (!finite_in(m.ber, 0.0, 0.5)) return "BER outside [0, 1/2]";
  if (!finite_in(m.slip_up, 0.0, 1.0) || !finite_in(m.slip_down, 0.0, 1.0)) {
    return "slip flux outside [0, 1]";
  }
  if (!finite_in(m.mean, -0.5, 0.5) || !finite_in(m.rms, 1e-12, 0.5)) {
    return "phase-error moments out of range";
  }
  return "";
}

/// Output checks of one point of workload `w`.
std::string check_point(const Workload& w, const Solved& s) {
  if (std::string why = check_stationary(s); !why.empty()) return why;
  const Measures& m = s.m;
  if (w.pipeline == Pipeline::kExplicit && !finite_in(m.lambda2, 1e-12, 2.0)) {
    return "|lambda_2| estimate outside (0, 2]";
  }
  if (w.pipeline == Pipeline::kPassage) {
    if (s.c.passage_converged != s.c.passage_solves) {
      return "a first-passage solve did not converge";
    }
    if (!finite_in(m.passage_cycles, 1.0, 1e300) ||
        !finite_in(m.lock_bits, 1.0, 1e300) ||
        !finite_in(m.prob_up, -1e-9, 1.0 + 1e-9)) {
      return "first-passage measures out of range";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Differential oracle (once per run, outside the timed region).

struct Oracle {
  std::size_t comparisons = 0;
  std::size_t failures = 0;
  std::size_t unresolved = 0;
  std::vector<std::string> lines;

  /// Compares one measure of two solutions.  `tail` measures below the
  /// resolvable floor are labelled unresolved and not compared.
  void compare(const std::string& label, const char* what, double a,
               double b, double floor, bool tail) {
    char buf[320];
    if (tail && std::max(std::abs(a), std::abs(b)) <= floor) {
      ++unresolved;
      std::snprintf(buf, sizeof buf,
                    "  %s %s: unresolved (%.4e vs %.4e, floor %.1e)",
                    label.c_str(), what, a, b, floor);
      lines.emplace_back(buf);
      return;
    }
    ++comparisons;
    const bool ok = std::abs(a - b) <= floor;
    failures += ok ? 0 : 1;
    std::snprintf(buf, sizeof buf, "  %s %s: %.10e vs %.10e (|d| %.1e, "
                  "tol %.1e) %s",
                  label.c_str(), what, a, b, std::abs(a - b), floor,
                  ok ? "ok" : "MISMATCH");
    lines.emplace_back(buf);
  }

  void compare_all(const std::string& label, const Measures& a, double res_a,
                   const Measures& b, double res_b) {
    const double floor = kFloorFactor * std::max(res_a, res_b);
    compare(label, "mean", a.mean, b.mean, floor, false);
    compare(label, "rms", a.rms, b.rms, floor, false);
    compare(label, "ber", a.ber, b.ber, floor, true);
    compare(label, "slip_flux", a.slip_up + a.slip_down,
            b.slip_up + b.slip_down, floor, true);
  }

  void fail(const std::string& line) {
    ++failures;
    lines.push_back("  " + line);
  }
};

void differential(const Workload& w, const std::vector<Point>& points,
                  const std::vector<Counts>& counts, std::uint64_t seed,
                  Oracle& oracle) {
  SpanRecorder off(Clock::now());
  // Shared point: the workload's smallest, solved through both
  // representations.
  std::size_t pick = 0;
  const auto size_of = [&](std::size_t i) {
    return w.pipeline == Pipeline::kMatrixFree ? counts[i].kron_states
                                               : counts[i].states;
  };
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (size_of(i) < size_of(pick)) pick = i;
  }
  const Point& shared = points[pick];
  const Solved e = solve_explicit(shared.config, off, false, false);
  const Solved k = solve_matrix_free(shared.config, off);
  const std::string label = "shared " + shared.hash;
  for (const Solved* s : {&e, &k}) {
    const std::string why = check_stationary(*s);
    if (!why.empty()) oracle.fail(label + ": " + why);
  }
  oracle.compare_all(label + " explicit-vs-kronecker", e.m,
                     l1_residual(e, e.eta), k.m, l1_residual(k, k.eta));

  // Small point: multilevel and Kronecker against dense GTH.
  const cdr::CdrConfig small = small_twin(seed);
  const Solved se = solve_explicit(small, off, false, false);
  const Solved sk = solve_matrix_free(small, off);
  const std::string small_label = "small " + fnv1a_hex(cdr::to_text(small));
  for (const Solved* s : {&se, &sk}) {
    const std::string why = check_stationary(*s);
    if (!why.empty()) oracle.fail(small_label + ": " + why);
  }
  if (se.chain->num_states() > 3000) {
    oracle.fail(small_label + ": too large for GTH");
    return;
  }
  const std::vector<double> gth =
      stocdr::sparse::gth_stationary_transposed(se.chain->chain().pt());
  const Measures gm = explicit_measures(se, gth);
  const double res_g = l1_residual(se, gth);
  oracle.compare_all(small_label + " multilevel-vs-gth", se.m,
                     l1_residual(se, se.eta), gm, res_g);
  oracle.compare_all(small_label + " kronecker-vs-gth", sk.m,
                     l1_residual(sk, sk.eta), gm, res_g);
}

// ---------------------------------------------------------------------------
// Statistics and reporting.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median of repeated timings of `fn` (one warm-up call first).
template <typename Fn>
double median_time(Fn&& fn, std::size_t repeats) {
  fn();
  std::vector<double> t;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

/// Per-point kernel timings from the first traced pass, each weighted by
/// the point's matvec count so that time x matvecs is the kernel's share.
struct KernelTimes {
  double spmv_weighted = 0.0;  ///< sum of spmv_s * multilevel matvecs
  double spmv_bytes = 0.0;     ///< sum of computed bytes * matvecs
  double apply_weighted = 0.0;
  double apply_bytes = 0.0;
};

void time_kernels(const Solved& s, KernelTimes& k) {
  std::vector<double> y(s.eta.size());
  if (s.chain) {
    const auto& chain = s.chain->chain();
    const double t =
        median_time([&] { chain.step(s.eta, y); }, 31);
    // Computed compulsory bytes of one CSR SpMV: values + column indices,
    // row pointers, x read once, y written once.
    const double n = static_cast<double>(chain.num_states());
    const double nnz = static_cast<double>(chain.num_transitions());
    const double bytes = nnz * 12.0 + (n + 1.0) * 4.0 + 2.0 * n * 8.0;
    const double mv = static_cast<double>(s.c.ml_matvecs);
    k.spmv_weighted += t * mv;
    k.spmv_bytes += bytes * mv;
  }
  if (s.kron) {
    const auto& d = s.kron->descriptor();
    stocdr::kron::KroneckerDescriptor::Workspace ws;
    const double t = median_time([&] { d.apply(s.eta, y, ws); }, 15);
    const double mv = static_cast<double>(s.c.robust_matvecs);
    k.apply_weighted += t * mv;
    k.apply_bytes += static_cast<double>(d.apply_bytes()) * mv;
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The per-layer metrics of a traced run: layer self seconds are medians
/// over the traced passes; counts are sums over the workload's points.
std::vector<Metric> per_layer_metrics(const SpanRecorder& rec,
                                      const std::vector<long>& traced_passes,
                                      const std::vector<Counts>& counts,
                                      const KernelTimes& kernels,
                                      double traced_sweep,
                                      double untraced_sweep) {
  const auto layer = [&](const char* name) {
    std::vector<double> v;
    for (const long p : traced_passes) {
      const auto self = rec.self_seconds(p);
      const auto it = self.find(name);
      v.push_back(it == self.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  Counts sum;
  for (const Counts& c : counts) sum += c;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"cdr.model_s", layer("cdr.model"), "s"},
      {"cdr.measures_s", layer("cdr.measures"), "s"},
      {"fsm.compose_s", layer("fsm.compose"), "s"},
      {"fsm.states", u(sum.states), "count"},
      {"fsm.transitions", u(sum.transitions), "count"},
      {"markov.hierarchy_s", layer("markov.hierarchy"), "s"},
      {"solvers.multilevel_s", layer("solvers.multilevel"), "s"},
      {"solvers.multilevel_cycles", u(sum.ml_cycles), "count"},
      {"solvers.multilevel_matvecs", u(sum.ml_matvecs), "count"},
      {"sparse.spmv_s", ratio(kernels.spmv_weighted, u(sum.ml_matvecs)), "s"},
      {"sparse.spmv_gbs",
       ratio(kernels.spmv_bytes, kernels.spmv_weighted) / 1e9,
       "GB/s-computed"},
      {"solvers.passage_s", layer("solvers.passage"), "s"},
      {"solvers.passage_iterations", u(sum.passage_iterations), "count"},
      {"solvers.passage_matvecs", u(sum.passage_matvecs), "count"},
      {"solvers.passage_converged_frac",
       ratio(u(sum.passage_converged), u(sum.passage_solves)), "fraction"},
      {"kronecker.descriptor_s", layer("kronecker.descriptor"), "s"},
      {"kronecker.factor_bytes", u(sum.factor_bytes), "bytes"},
      {"kronecker.apply_s",
       ratio(kernels.apply_weighted, u(sum.robust_matvecs)), "s"},
      {"kronecker.apply_gbs",
       ratio(kernels.apply_bytes, kernels.apply_weighted) / 1e9,
       "GB/s-computed"},
      {"robust.ladder_s", layer("robust.ladder"), "s"},
      {"robust.matvecs", u(sum.robust_matvecs), "count"},
      {"robust.rung_yield",
       ratio(u(sum.rungs_converged), u(sum.rungs_attempted)), "fraction"},
      {"analysis.lambda2_s", layer("analysis.lambda2"), "s"},
      {"other_s", layer("point"), "s"},
      {"traced_sweep_s", traced_sweep, "s"},
      {"trace_overhead_s", traced_sweep - untraced_sweep, "s"},
  };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

bool telemetry_env_set() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "STOCDR_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set; the "
                           "library's telemetry must stay off\n", *e);
      return true;
    }
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: stocdr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--setup-only]\n");
  return 2;
}

int run(int argc, char** argv, Clock::time_point t_start) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      setup_only = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      workload_name = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload_name.empty() || (!setup_only && !(seconds > 0.0))) {
    return usage();
  }
  if (telemetry_env_set()) return 2;

  // ---- set-up: workload generation --------------------------------------
  const Workload& w = find_workload(workload_name);
  const std::vector<Point> points = generate(w, seed);
  // Every workload runs on one thread.  At 2 threads each shuffle pass of
  // the Kronecker apply is a barrier across both pool lanes; on a shared VM
  // a host steal episode doubled matrix_free's sweep time on 6 of 10 seeds
  // (IQR/median 0.53) while the serial workloads moved ~10%.
  const stocdr::par::ThreadScope serial(1);
  const double setup_s = seconds_between(t_start, Clock::now());
  if (setup_only) {
    std::printf("setup_s %.9f\n", setup_s);
    return 0;
  }

  std::printf("workload %s seed %llu: %zu points, 1 thread, closed loop, "
              "%s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              points.size(), trace ? "traced" : "untraced");
  for (const Point& p : points) {
    std::printf("  %s %s  %s\n", p.key.c_str(), p.hash.c_str(),
                p.config.summary().c_str());
  }

  // ---- timed closed loop -------------------------------------------------
  SpanRecorder rec(t_start);
  const std::size_t min_passes = trace ? 4 : 3;
  std::vector<Counts> counts(points.size());
  std::vector<double> untraced_sweeps, traced_sweeps, point_times;
  std::vector<long> traced_passes;
  KernelTimes kernels;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto loop_start = Clock::now();
  for (long pass = 0;
       static_cast<std::size_t>(pass) < min_passes ||
       seconds_between(loop_start, Clock::now()) < seconds;
       ++pass) {
    const bool traced = trace && pass % 2 == 1;
    rec.set_enabled(traced);
    if (traced) traced_passes.push_back(pass);
    double sweep = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      rec.set_context(pass, static_cast<long>(i));
      ++attempted;
      Solved s;
      std::string error;
      const auto t0 = Clock::now();
      {
        Span span(rec, "point");
        try {
          s = solve_point(w, points[i].config, rec);
        } catch (const std::exception& e) {
          error = std::string("threw: ") + e.what();
        }
      }
      const double t = seconds_between(t0, Clock::now());
      sweep += t;
      if (!traced) point_times.push_back(t);
      if (error.empty()) error = check_point(w, s);
      if (error.empty() && pass == 0) counts[i] = s.c;
      if (error.empty() && !(s.c == counts[i])) {
        error = "work counts differ from the first pass";
      }
      if (error.empty() && traced && traced_passes.size() == 1) {
        time_kernels(s, kernels);
      }
      if (pass == 0 && error.empty()) {
        std::printf("  %s %.4fs ber %.4e slip %.4e rms %.5f  %s\n",
                    points[i].key.c_str(), t, s.m.ber,
                    s.m.slip_up + s.m.slip_down, s.m.rms,
                    s.c.text().c_str());
      }
      if (!error.empty()) {
        ++failed;
        std::printf("  FAILED %s (%s) pass %ld: %s\n", points[i].key.c_str(),
                    points[i].hash.c_str(), pass, error.c_str());
      }
      // Hand the point's freed heap back to the kernel before the next
      // point, so each point's RSS high-water does not depend on how the
      // previous points fragmented the heap.
      s = Solved{};
      malloc_trim(0);
    }
    (traced ? traced_sweeps : untraced_sweeps).push_back(sweep);
    std::printf("  pass %ld%s: %.4fs\n", pass, traced ? " (traced)" : "", sweep);
  }
  const double rss_mb = peak_rss_mb();
  rec.set_enabled(false);

  // ---- differential oracle (outside the timed region) --------------------
  Oracle oracle;
  if (failed == 0) {
    try {
      differential(w, points, counts, seed, oracle);
    } catch (const std::exception& e) {
      oracle.fail(std::string("differential oracle threw: ") + e.what());
    }
  }
  std::printf("oracle: %zu compared, %zu unresolved, %zu failed\n",
              oracle.comparisons, oracle.unresolved, oracle.failures);
  for (const std::string& line : oracle.lines) {
    std::printf("%s\n", line.c_str());
  }
  failed += oracle.failures;
  attempted += oracle.failures;

  std::string digest_text;
  for (const Counts& c : counts) digest_text += c.text() + "\n";
  std::printf("passes %zu untraced + %zu traced; point samples %zu; "
              "failed_frac %.6f (failed %zu / attempted %zu); counts digest "
              "%s\n",
              untraced_sweeps.size(), traced_sweeps.size(), point_times.size(),
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted, fnv1a_hex(digest_text).c_str());

  // ---- metrics -----------------------------------------------------------
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"sweep_s", median(untraced_sweeps), "s"},
        {"point_s_p50", median(point_times), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    metrics = per_layer_metrics(rec, traced_passes, counts, kernels,
                                median(traced_sweeps), median(untraced_sweeps));
    if (!spans_path.empty() && !rec.write_jsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    } else if (!spans_path.empty()) {
      std::printf("spans written to %s\n", spans_path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  // Pin glibc's mmap and trim thresholds at the values its dynamic policy
  // converges to (32 MiB, and twice that).  The default thresholds start at
  // 128 KiB and rise on the first frees, so whether a large buffer came
  // from the heap or from mmap depended on allocation history, and
  // peak_rss_mb was bimodal (+-20%) between runs with identical work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  try {
    return run(argc, argv, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
