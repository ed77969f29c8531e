#include "robust/robust_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "obs/live/flight_recorder.hpp"
#include "obs/mem/capacity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pool.hpp"
#include "robust/checkpoint/checkpoint.hpp"
#include "solvers/linear.hpp"
#include "solvers/stationary.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"
#include "support/math.hpp"
#include "support/text.hpp"

namespace stocdr::robust {

namespace {

obs::Counter& solve_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.solves");
  return c;
}

obs::Counter& rung_failure_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.rung_failures");
  return c;
}

obs::Counter& repair_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.repairs");
  return c;
}

obs::Counter& degradation_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.degradations");
  return c;
}

obs::Counter& admission_reject_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.admission_rejects");
  return c;
}

obs::Counter& admission_degrade_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.admission_degrades");
  return c;
}

obs::Counter& deadline_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.deadline_exceeded");
  return c;
}

obs::Counter& flight_dump_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.flight_dumps");
  return c;
}

obs::Counter& durable_checkpoint_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.durable_checkpoints");
  return c;
}

obs::Counter& checkpoint_reject_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.checkpoint_rejects");
  return c;
}

obs::Counter& checkpoint_write_failure_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter(
      "robust.checkpoint_write_failures");
  return c;
}

obs::Counter& checkpoint_restore_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("robust.checkpoint_restores");
  return c;
}

/// A sentinel trip means the spans leading up to the fault are exactly what
/// the flight-recorder ring holds right now — dump them before further
/// rungs overwrite the evidence.  First trip of a solve wins; no-op when no
/// ring is installed (STOCDR_TRACE_RING unset).
void dump_flight_recording(const std::string& configured,
                           RobustSolveReport& report) {
  if (!report.flight_dump_path.empty()) return;
  const obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  if (recorder == nullptr) return;
  std::string path = configured;
  if (path.empty()) {
    if (const char* env = std::getenv("STOCDR_FLIGHT_DUMP")) path = env;
  }
  if (path.empty()) path = "stocdr_flight.jsonl";
  try {
    recorder->dump(path);
  } catch (const Error& e) {
    std::fprintf(stderr, "stocdr: flight-recorder dump failed: %s\n",
                 e.what());
    return;
  }
  report.flight_dump_path = path;
  flight_dump_counter().add(1);
  obs::evt::emit("flight.dump", obs::evt::Severity::kWarning,
                 {{"path", path}});
}

/// The deflated stationary operator B = I - P^T + (1/n) e e^T.  B is
/// nonsingular for an irreducible chain (e spans the left null space of
/// I - P^T and e^T (e/n) = 1 != 0), and B x = e/n has the stationary
/// vector as its unique solution: left-multiplying by e^T forces
/// e^T x = 1, which in turn forces (I - P^T) x = 0.  This turns the
/// singular eigenproblem into a plain linear system GMRES can attack.
class StationaryShiftOperator final : public solvers::LinearOperator {
 public:
  explicit StationaryShiftOperator(const markov::StepOperator& op)
      : op_(&op), scratch_(op.size()) {}

  [[nodiscard]] std::size_t size() const override { return op_->size(); }

  void apply(std::span<const double> x, std::span<double> y) const override {
    op_->step(x, scratch_);  // P^T x
    const double mean = kahan_sum(x) / static_cast<double>(op_->size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = x[i] - scratch_[i] + mean;
    }
  }

 private:
  const markov::StepOperator* op_;
  mutable std::vector<double> scratch_;
};

/// GMRES rung: solve B (x0 + d) = e/n as B d = e/n - B x0 so the rung
/// warm-starts from the ladder's checkpoint, then clamp/normalize the
/// update back onto the probability simplex.  `restart` is the Krylov
/// dimension the memory budget admits.
solvers::StationaryResult run_gmres_rung(const markov::StepOperator& step,
                                         const RungSpec& spec,
                                         double tolerance,
                                         SolveSentinel& sentinel,
                                         std::span<const double> x0,
                                         std::size_t restart) {
  const Timer timer;
  const std::size_t n = step.size();
  solvers::StationaryResult out;
  out.stats.method = "gmres-stationary";

  const StationaryShiftOperator op(step);
  std::vector<double> rhs(n, 1.0 / static_cast<double>(n));
  std::vector<double> bx0(n);
  op.apply(x0, bx0);
  for (std::size_t i = 0; i < n; ++i) rhs[i] -= bx0[i];

  solvers::SolverOptions lopts;
  lopts.tolerance = tolerance;
  lopts.max_iterations = spec.max_iterations;
  const obs::ProgressObserver observer(sentinel);
  lopts.progress = observer;
  solvers::LinearResult lin = solvers::gmres(op, rhs, lopts, restart);

  out.stats.iterations = lin.stats.iterations;
  out.stats.matvec_count = lin.stats.matvec_count;
  out.stats.residual_history = std::move(lin.stats.residual_history);

  std::vector<double> x(x0.begin(), x0.end());
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += lin.solution[i];
    if (!std::isfinite(x[i])) finite = false;
    if (x[i] < 0.0) x[i] = 0.0;
  }
  const double mass = finite ? kahan_sum(x) : 0.0;
  if (!finite || !(mass > 0.0)) {
    out.stats.residual = std::numeric_limits<double>::infinity();
    out.distribution = std::move(x);
    out.stats.seconds = timer.seconds();
    return out;
  }
  for (double& v : x) v /= mass;
  out.stats.residual = solvers::stationary_residual(step, x);
  // Convergence is judged on the harness metric (L1 stationary residual),
  // not GMRES's relative 2-norm; a near-miss escalates warm-started.
  out.stats.converged = out.stats.residual < tolerance;
  out.distribution = std::move(x);
  out.stats.seconds = timer.seconds();
  return out;
}

/// The GMRES rung's Krylov dimension when no memory budget constrains it
/// (solvers::gmres's own default).
constexpr std::size_t kGmresRestart = 80;

/// The one restart-sizing rule of the GMRES rung, on either
/// representation: halve the restart (80 -> 40 -> 20 -> 10) while
/// `peak(m)` — the priced solve phase plus the rung's m + 4 basis and
/// temporary vectors — exceeds the budget, and return 0 (rung skipped, never
/// the solve refused) once even m = 10 does not fit.
template <typename PeakFn>
std::size_t fit_gmres_restart(std::size_t budget, const PeakFn& peak) {
  std::size_t restart = kGmresRestart;
  if (budget == 0) return restart;
  while (restart > 0 && peak(restart) > budget) {
    restart = restart >= 20 ? restart / 2 : 0;
  }
  return restart;
}

/// What one ladder run iterates on.  `op` is always present; `chain` (with
/// its hierarchy) only when the transition matrix is materialized — on the
/// explicit path `op` is the chain itself.  Rungs that need rows
/// (multilevel, SOR, GTH) are skipped by capability when it is null.
struct LadderInput {
  const markov::StepOperator& op;
  const markov::MarkovChain* chain;
  const std::vector<markov::Partition>* hierarchy;
  std::size_t gmres_restart;
};

/// Why `kind` cannot run on `in` ("" when it can).  A skip is reported as
/// kSkipped with this detail, never silently dropped.
std::string skip_reason(RungKind kind, const LadderInput& in,
                        const RobustOptions& options) {
  if (kind == RungKind::kGmresStationary && in.gmres_restart == 0) {
    return "Krylov basis cannot fit the memory budget";
  }
  if (in.chain == nullptr) {
    switch (kind) {
      case RungKind::kMultilevel:
        return "no explicit matrix: multilevel aggregation needs CSR rows; "
               "power-family rungs cover the fallback";
      case RungKind::kSor:
        return "no explicit matrix: SOR's in-place sweep needs row access";
      case RungKind::kGthDirect:
        return "no explicit matrix: dense GTH needs materialized rows";
      default: return "";
    }
  }
  const std::size_t n = in.chain->num_states();
  if (kind == RungKind::kGthDirect && n > options.gth_size_limit) {
    return std::to_string(n) + " states exceed the dense-GTH limit " +
           std::to_string(options.gth_size_limit);
  }
  return "";
}

/// The ladder loop: tries `options.ladder` (or `default_rungs` when empty)
/// in order, each rung warm-started from the best vector its predecessors
/// reached and watched by a fresh sentinel, until one converges, the
/// deadline passes, or the ladder runs out.  Appends to `report`.
std::vector<double> run_ladder(const LadderInput& in,
                               const RobustOptions& options,
                               std::vector<RungSpec> default_rungs,
                               std::span<const double> initial,
                               const Timer& clock, RobustSolveReport& report) {
  const std::size_t n = in.op.size();
  std::vector<double> best = solvers::detail::make_initial(in.op, initial);
  double best_residual = solvers::stationary_residual(in.op, best);
  bool warm = false;
  std::string predecessor;

  const std::vector<RungSpec> ladder =
      options.ladder.empty() ? std::move(default_rungs) : options.ladder;

  // Durable-checkpoint sink: persists sentinel snapshots so a killed
  // process restarts warm.  A failed persist is counted and logged but
  // never takes down the solve it exists to protect.
  const bool durable = !options.checkpoint_path.empty();
  auto persist_sink = [&](std::uint64_t iteration, double res,
                          const std::vector<double>& iterate) {
    ckpt::Checkpoint snapshot;
    snapshot.config_hash = options.checkpoint_config_hash;
    snapshot.iteration = iteration;
    snapshot.residual = res;
    snapshot.iterate = iterate;
    try {
      ckpt::write_checkpoint(options.checkpoint_path, snapshot,
                             options.checkpoint_keep);
      ++report.durable_checkpoints;
      durable_checkpoint_counter().add(1);
      obs::evt::emit("checkpoint.write", obs::evt::Severity::kInfo,
                     {{"iteration", iteration}, {"residual", res}});
    } catch (const Error& e) {
      ++report.checkpoint_write_failures;
      checkpoint_write_failure_counter().add(1);
      obs::evt::emit("checkpoint.write_failure", obs::evt::Severity::kWarning,
                     {{"error", std::string(e.what())}});
      std::fprintf(stderr, "stocdr: durable checkpoint write failed: %s\n",
                   e.what());
    }
  };

  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const RungSpec& spec = ladder[r];
    RungReport rung;
    rung.method = to_string(spec.kind);
    rung.predecessor_failure = predecessor;
    rung.initial_residual = best_residual;
    rung.warm_started = warm;

    // Global deadline gate between rungs (sentinels cover the inside).
    if (clock.seconds() > options.time_budget_seconds) {
      rung.failure = FailureCause::kDeadlineExceeded;
      rung.detail = "budget exhausted before the rung started";
      report.deadline_exceeded = true;
      report.rungs.push_back(std::move(rung));
      break;
    }
    std::string skip = skip_reason(spec.kind, in, options);
    if (!skip.empty()) {
      rung.failure = FailureCause::kSkipped;
      rung.detail = std::move(skip);
      report.rungs.push_back(std::move(rung));
      continue;  // predecessor stays: the *real* failure above this rung
    }

    SolveSentinel::Options sopt;
    sopt.stride = options.sentinel_stride;
    sopt.divergence_factor = options.divergence_factor;
    sopt.stall_factor = options.stall_factor;
    sopt.stall_window = options.stall_window;
    sopt.deadline_seconds = options.time_budget_seconds;
    sopt.clock = &clock;
    sopt.fault_injector = options.fault_injector;
    sopt.forward = options.progress;
    // A GMRES progress iterate is the correction of the shifted system, not
    // a distribution — never checkpoint it.
    sopt.take_checkpoints = spec.kind != RungKind::kGmresStationary;
    if (durable && sopt.take_checkpoints) {
      sopt.persist = CheckpointSink(persist_sink);
      sopt.persist_period = options.checkpoint_period;
    }
    SolveSentinel sentinel(sopt);
    const obs::ProgressObserver observer(sentinel);

    obs::Span span("robust.rung");
    if (span.active()) {
      span.attr("kind", std::string_view(to_string(spec.kind)));
      span.attr("rung", r);
      span.attr("warm_started", rung.warm_started);
    }

    // SOR / Jacobi / power options; multilevel and GMRES build their own.
    solvers::SolverOptions o;
    o.tolerance = options.tolerance;
    o.max_iterations = spec.max_iterations;
    o.relaxation = spec.relaxation;
    o.progress = observer;
    solvers::StationaryResult result;
    bool threw = false;
    try {
      switch (spec.kind) {
        case RungKind::kMultilevel: {
          solvers::MultilevelOptions mopts = options.multilevel;
          mopts.tolerance = options.tolerance;
          mopts.max_cycles = spec.max_iterations;
          mopts.progress = observer;
          result = solvers::solve_stationary_multilevel(
              *in.chain, *in.hierarchy, mopts, best);
          break;
        }
        case RungKind::kGmresStationary:
          result = run_gmres_rung(in.op, spec, options.tolerance, sentinel,
                                  best, in.gmres_restart);
          break;
        case RungKind::kSor:
          result = solvers::solve_stationary_sor(*in.chain, o, best);
          break;
        case RungKind::kJacobi:
          result = solvers::solve_stationary_jacobi(in.op, o, best);
          break;
        case RungKind::kPower:
          result = solvers::solve_stationary_power(in.op, o, best);
          break;
        case RungKind::kGthDirect:
          result = solvers::solve_stationary_direct(*in.chain);
          // GTH is direct and subtraction-free: any finite answer is final.
          result.stats.converged = std::isfinite(result.stats.residual);
          break;
      }
    } catch (const Error& e) {
      threw = true;
      rung.failure = FailureCause::kError;
      rung.detail = e.what();
      result.stats.method = to_string(spec.kind);
      result.stats.converged = false;
    }

    if (!result.stats.method.empty()) rung.method = result.stats.method;
    rung.stats = result.stats;
    rung.checkpoints = sentinel.checkpoints_taken();
    report.checkpoints_taken += sentinel.checkpoints_taken();

    const bool success = !threw && result.stats.converged &&
                         std::isfinite(result.stats.residual);
    if (success) {
      rung.failure = FailureCause::kNone;
      report.converged = true;
      report.final_method = rung.method;
      obs::evt::emit("rung.success", obs::evt::Severity::kInfo,
                     {{"method", rung.method},
                      {"residual", result.stats.residual},
                      {"iterations",
                       std::uint64_t{result.stats.iterations}}});
      best = std::move(result.distribution);
      best_residual = result.stats.residual;
      if (span.active()) {
        span.attr("outcome", std::string_view("converged"));
        span.attr("residual", best_residual);
      }
      report.rungs.push_back(std::move(rung));
      break;
    }

    // Classify the failure: the sentinel's verdict wins (it saw the fault
    // live), then non-finite residuals, then the iteration budget.
    if (!threw) {
      if (sentinel.verdict() != FailureCause::kNone) {
        rung.failure = sentinel.verdict();
        rung.detail = sentinel.verdict_detail();
      } else if (!result.stats.breakdown.empty()) {
        rung.failure = FailureCause::kBreakdown;
        rung.detail = result.stats.breakdown;
      } else if (!std::isfinite(result.stats.residual)) {
        rung.failure = FailureCause::kNumericalFault;
        rung.detail = "solver reported a non-finite residual";
      } else {
        rung.failure = FailureCause::kIterationBudget;
        rung.detail = "no convergence within " +
                      std::to_string(spec.max_iterations) + " iterations";
      }
    }
    rung_failure_counter().add(1);
    obs::evt::emit("rung.failure", obs::evt::Severity::kWarning,
                   {{"method", rung.method},
                    {"cause", std::string(to_string(rung.failure))},
                    {"detail", rung.detail},
                    {"residual", result.stats.residual}});
    if (rung.failure == FailureCause::kDiverged ||
        rung.failure == FailureCause::kStalled ||
        rung.failure == FailureCause::kNumericalFault) {
      dump_flight_recording(options.flight_dump_path, report);
    }
    if (span.active()) {
      span.attr("outcome", std::string_view(to_string(rung.failure)));
      span.attr("residual", result.stats.residual);
    }

    // Checkpoint/restart: the next rung starts from the best vector any
    // predecessor reached — the sentinel's snapshot or the rung's final
    // iterate, whichever is better — never from scratch.
    if (sentinel.checkpoint_residual() < best_residual) {
      best = sentinel.checkpoint();
      best_residual = sentinel.checkpoint_residual();
      warm = true;
      report.final_method = rung.method;
    }
    if (!threw && std::isfinite(result.stats.residual) &&
        result.stats.residual < best_residual &&
        result.distribution.size() == n) {
      best = std::move(result.distribution);
      best_residual = result.stats.residual;
      warm = true;
      report.final_method = rung.method;
    }

    const bool deadline = rung.failure == FailureCause::kDeadlineExceeded;
    predecessor = to_string(rung.failure);
    report.rungs.push_back(std::move(rung));
    if (deadline) {
      report.deadline_exceeded = true;
      break;  // the budget is global: no rung below can run either
    }
  }
  report.residual = best_residual;
  return best;
}

/// The admission gate's refusal: the report says why, no solver allocation
/// happened, and the distribution stays empty — never an OOM mid-ladder.
RobustResult refuse_admission(RobustResult out, const Timer& clock,
                              obs::Span& span) {
  out.report.admission_refused = true;
  admission_reject_counter().add(1);
  obs::evt::emit("admission.refuse", obs::evt::Severity::kWarning,
                 {{"predicted_peak_bytes", out.report.predicted_peak_bytes},
                  {"memory_budget_bytes", out.report.memory_budget_bytes}});
  out.report.seconds = clock.seconds();
  if (span.active()) {
    span.attr("admission_refused", true);
    span.attr("predicted_peak_bytes", out.report.predicted_peak_bytes);
    span.attr("memory_budget_bytes", out.report.memory_budget_bytes);
  }
  return out;
}

/// Durable-checkpoint restore: warm-start from the newest on-disk
/// generation that validates for this configuration.  Every rejected
/// generation is counted, noted on the trace, and degraded past — a bad
/// checkpoint costs warmth, never correctness.  Returns the vector the
/// ladder starts from: the caller's `initial` when given (or when nothing
/// restores), otherwise the restored iterate, parked in `restored`.
std::span<const double> restore_checkpoint(const RobustOptions& options,
                                           std::size_t n,
                                           std::span<const double> initial,
                                           std::vector<double>& restored,
                                           RobustSolveReport& report) {
  if (options.checkpoint_path.empty()) return initial;
  ckpt::RestoreScan scan =
      ckpt::load_latest(options.checkpoint_path, options.checkpoint_keep,
                        options.checkpoint_config_hash, n);
  report.checkpoint_rejects = scan.rejected;
  if (scan.rejected > 0) {
    checkpoint_reject_counter().add(scan.rejected);
    obs::evt::emit("checkpoint.reject", obs::evt::Severity::kWarning,
                   {{"rejected", std::uint64_t{scan.rejected}},
                    {"detail", scan.reject_details.front()}});
    obs::Span note("robust.checkpoint_reject");
    if (note.active()) {
      note.attr("rejected", scan.rejected);
      note.attr("detail", std::string_view(scan.reject_details.front()));
    }
    for (const std::string& line : scan.reject_details) {
      std::fprintf(stderr, "stocdr: checkpoint rejected: %s\n", line.c_str());
    }
  }
  if (scan.best.status != ckpt::LoadStatus::kOk || !initial.empty()) {
    return initial;
  }
  report.checkpoint_restored = true;
  report.checkpoint_restore_path = scan.restored_path;
  report.checkpoint_restore_iteration = scan.best.checkpoint.iteration;
  report.checkpoint_restore_residual = scan.best.checkpoint.residual;
  checkpoint_restore_counter().add(1);
  obs::evt::emit("checkpoint.restore", obs::evt::Severity::kInfo,
                 {{"iteration", std::uint64_t{scan.best.checkpoint.iteration}},
                  {"residual", scan.best.checkpoint.residual}});
  restored = std::move(scan.best.checkpoint.iterate);
  return restored;
}

/// The solve epilogue: wall time, the deadline metric, the span summary.
RobustResult finish_solve(RobustResult out, const Timer& clock,
                          obs::Span& span) {
  out.report.seconds = clock.seconds();
  if (out.report.deadline_exceeded) {
    deadline_counter().add(1);
    obs::evt::emit("deadline.exceeded", obs::evt::Severity::kWarning,
                   {{"seconds", out.report.seconds}});
  }
  if (span.active()) {
    span.attr("converged", out.report.converged);
    span.attr("residual", out.report.residual);
    span.attr("rungs", out.report.rungs.size());
    span.attr("deadline_exceeded", out.report.deadline_exceeded);
    span.attr("degraded", out.report.degraded);
    span.attr("degraded_for_memory", out.report.degraded_for_memory);
    span.attr("checkpoint_restored", out.report.checkpoint_restored);
    span.attr("method", std::string_view(out.report.final_method));
  }
  return out;
}

}  // namespace

const char* to_string(RungKind kind) {
  switch (kind) {
    case RungKind::kMultilevel: return "multilevel";
    case RungKind::kGmresStationary: return "gmres-stationary";
    case RungKind::kSor: return "sor";
    case RungKind::kJacobi: return "jacobi";
    case RungKind::kPower: return "power";
    case RungKind::kGthDirect: return "gth-direct";
  }
  return "unknown";
}

std::vector<RungSpec> default_ladder() {
  return {
      {RungKind::kMultilevel, 500, 1.0},
      {RungKind::kGmresStationary, 300, 1.0},
      {RungKind::kSor, 10000, 1.0},
      {RungKind::kPower, 50000, 0.9},
      {RungKind::kGthDirect, 1, 1.0},
  };
}

std::vector<RungSpec> default_matrix_free_ladder() {
  return {
      {RungKind::kGmresStationary, 300, 1.0},
      {RungKind::kJacobi, 20000, 1.0},
      {RungKind::kPower, 50000, 0.9},
  };
}

RobustSolver::RobustSolver(const markov::MarkovChain& chain,
                           std::vector<markov::Partition> hierarchy,
                           RobustOptions options)
    : chain_(&chain),
      hierarchy_(std::move(hierarchy)),
      options_(std::move(options)) {
  STOCDR_REQUIRE(options_.tolerance > 0.0,
                 "robust: tolerance must be positive");
  STOCDR_REQUIRE(
      hierarchy_.empty() || hierarchy_.front().num_states() == chain.num_states(),
      "robust: hierarchy does not match the chain");

  // Input validation gate.  kStochasticTol matches MarkovChain's strict
  // validation: chains below it are exactly what a strict construction
  // would accept and pass through untouched.
  constexpr double kStochasticTol = 1e-10;
  input_defect_ = chain.stochasticity_defect();
  if (input_defect_ > kStochasticTol) {
    if (input_defect_ > options_.repair_tolerance) {
      throw PreconditionError(
          "robust: row-stochasticity defect " + sci(input_defect_, 2) +
          " exceeds the repair tolerance " +
          sci(options_.repair_tolerance, 2) + "; rejecting the chain");
    }
    // Repair: renormalize every source state's outgoing mass to 1.
    const std::vector<double> sums = chain.pt().col_sums();
    for (std::size_t s = 0; s < sums.size(); ++s) {
      if (!(sums[s] > 0.0)) {
        throw PreconditionError(
            "robust: state " + std::to_string(s) +
            " has no outgoing probability; cannot renormalize");
      }
    }
    sparse::CooBuilder builder(chain.num_states(), chain.num_states());
    builder.reserve(chain.pt().nnz());
    chain.pt().for_each([&](std::size_t dst, std::size_t src, double v) {
      builder.add(dst, src, v / sums[src]);
    });
    repaired_ = std::make_unique<markov::MarkovChain>(
        builder.to_csr(), markov::Validation::kStrict);
    repair_counter().add(1);
  }
}

std::vector<double> RobustSolver::run_degraded(
    std::size_t max_states, std::size_t gmres_restart,
    std::span<const double> initial, const Timer& clock,
    RobustSolveReport& report) const {
  const markov::MarkovChain& fine = chain();
  if (!initial.empty()) {
    STOCDR_REQUIRE(initial.size() == fine.num_states(),
                   "robust: initial guess size must match the chain");
  }

  // Compose hierarchy levels until the coarse chain fits the ceiling (or
  // the hierarchy runs out — then we solve the coarsest we can reach).
  markov::Partition composed = hierarchy_.front();
  std::size_t levels_used = 1;
  while (composed.num_groups() > max_states &&
         levels_used < hierarchy_.size()) {
    composed = composed.compose(hierarchy_[levels_used]);
    ++levels_used;
  }

  const std::vector<double> weights(fine.num_states(), 1.0);
  markov::MarkovChain coarse(
      markov::aggregate_transposed(fine.pt(), composed, weights),
      markov::Validation::kNone);
  const std::vector<markov::Partition> coarse_hierarchy(
      hierarchy_.begin() + static_cast<std::ptrdiff_t>(levels_used),
      hierarchy_.end());

  report.degraded = true;
  report.degraded_states = coarse.num_states();
  degradation_counter().add(1);
  obs::evt::emit("degrade.lump", obs::evt::Severity::kWarning,
                 {{"states", std::uint64_t{coarse.num_states()}}});

  std::vector<double> coarse_initial;
  if (!initial.empty()) {
    coarse_initial = markov::restrict_sum(composed, initial);
  }
  std::vector<double> coarse_x =
      run_ladder({coarse, &coarse, &coarse_hierarchy, gmres_restart}, options_,
                 default_ladder(), coarse_initial, clock, report);

  // Expand: spread each group's stationary mass uniformly over its fine
  // states, then polish with damped power sweeps (deadline permitting).
  std::vector<double> x(fine.num_states(), 1.0);
  markov::disaggregate(composed, coarse_x, x);
  std::vector<double> scratch(x.size());
  const double w = options_.multilevel.smoothing_damping;
  for (std::size_t s = 0; s < options_.degrade_smooth_sweeps; ++s) {
    if (clock.seconds() > options_.time_budget_seconds) break;
    fine.step(x, scratch);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = (1.0 - w) * x[i] + w * scratch[i];
    }
    normalize_l1(x);
  }
  // The accuracy loss of the coarser grid, measured where it matters: on
  // the fine chain.
  report.degradation_residual = solvers::stationary_residual(fine, x);
  report.residual = report.degradation_residual;
  return x;
}

RobustResult RobustSolver::solve(std::span<const double> initial) const {
  const Timer clock;
  obs::Span span("robust.solve");
  // One scope around the entire ladder: every rung (its options leave
  // threads at 0) inherits it, so fallbacks run at the same width.
  const par::ThreadScope thread_scope(options_.threads);
  const markov::MarkovChain& c = chain();
  solve_counter().add(1);

  RobustResult out;
  out.report.states = c.num_states();
  out.report.stochasticity_defect = input_defect_;
  out.report.repaired = repaired_ != nullptr;
  if (span.active()) {
    span.attr("states", c.num_states());
    span.attr("repaired", out.report.repaired);
  }

  // Memory admission gate: predict the solve's peak footprint with the
  // analytic capacity model *before* any solver allocation.  A prediction
  // over budget first tightens the degradation ceiling to the coarsest
  // hierarchy level whose prediction fits; when nothing fits the solve is
  // refused with a structured report — never an OOM kill mid-ladder.
  std::size_t admission_max_states = options_.max_states;
  const std::uint64_t fine_states = c.num_states();
  const std::uint64_t fine_nnz = c.num_transitions();
  if (options_.memory_budget_bytes > 0) {
    const auto predict = [](std::uint64_t states, std::uint64_t transitions) {
      obs::mem::CapacityInputs in;
      in.states = states;
      in.transitions = transitions;
      return obs::mem::estimate_capacity(in).peak_bytes();
    };
    out.report.memory_budget_bytes = options_.memory_budget_bytes;
    out.report.predicted_peak_bytes = predict(fine_states, fine_nnz);
    if (out.report.predicted_peak_bytes > options_.memory_budget_bytes) {
      // Coarse nnz is unknown before aggregation; scale the fine nnz by
      // the state ratio (floor: one transition per state).  Lumping keeps
      // the relative density, so this is the right order of magnitude.
      std::size_t fit_states = 0;
      if (!hierarchy_.empty()) {
        markov::Partition composed = hierarchy_.front();
        for (std::size_t level = 1;; ++level) {
          const std::uint64_t groups = composed.num_groups();
          const std::uint64_t nnz = std::max<std::uint64_t>(
              groups,
              fine_nnz * groups / std::max<std::uint64_t>(fine_states, 1));
          if (predict(groups, nnz) <= options_.memory_budget_bytes) {
            fit_states = groups;
            break;
          }
          if (level >= hierarchy_.size()) break;
          composed = composed.compose(hierarchy_[level]);
        }
      }
      if (fit_states == 0) return refuse_admission(std::move(out), clock, span);
      admission_max_states = std::min(admission_max_states, fit_states);
      out.report.degraded_for_memory = true;
      admission_degrade_counter().add(1);
      obs::evt::emit(
          "admission.degrade", obs::evt::Severity::kWarning,
          {{"predicted_peak_bytes", out.report.predicted_peak_bytes},
           {"memory_budget_bytes", out.report.memory_budget_bytes}});
    }
  }
  // The GMRES rung runs without the multilevel coarse chains; price the
  // fine chain's solve phase with them left out.  A degraded ladder runs on
  // a smaller chain, so the fine-chain restart is conservative there.
  const std::size_t gmres_restart =
      fit_gmres_restart(options_.memory_budget_bytes, [&](std::size_t m) {
        obs::mem::CapacityInputs in;
        in.states = fine_states;
        in.transitions = fine_nnz;
        in.multilevel = false;
        in.workspace_vectors += static_cast<double>(m + 4);
        return obs::mem::estimate_capacity(in).solve_phase_bytes();
      });

  std::vector<double> restored;
  const std::span<const double> start = restore_checkpoint(
      options_, c.num_states(), initial, restored, out.report);
  if (c.num_states() > admission_max_states && !hierarchy_.empty()) {
    out.distribution = run_degraded(admission_max_states, gmres_restart, start,
                                    clock, out.report);
  } else {
    out.distribution =
        run_ladder({c, &c, &hierarchy_, gmres_restart}, options_,
                   default_ladder(), start, clock, out.report);
  }
  return finish_solve(std::move(out), clock, span);
}

RobustResult solve_stationary_robust(
    const markov::MarkovChain& chain,
    const std::vector<markov::Partition>& hierarchy,
    const RobustOptions& options, std::span<const double> initial) {
  const RobustSolver solver(chain, hierarchy, options);
  return solver.solve(initial);
}

RobustResult solve_stationary_robust(const markov::StepOperator& op,
                                     const RobustOptions& options,
                                     std::span<const double> initial,
                                     std::uint64_t operator_storage_bytes,
                                     std::string_view representation) {
  STOCDR_REQUIRE(options.tolerance > 0.0,
                 "robust: tolerance must be positive");
  const Timer clock;
  obs::Span span("robust.solve");
  const par::ThreadScope thread_scope(options.threads);
  solve_counter().add(1);

  RobustResult out;
  const std::size_t n = op.size();
  out.report.states = n;
  out.report.representation = std::string(representation);
  if (span.active()) {
    span.attr("states", n);
    span.attr("representation", representation);
  }

  // Validation gate.  A matrix-free operator cannot be renormalized in
  // place, so anything beyond the repair tolerance is a rejection rather
  // than a repair; sub-tolerance defects are recorded and tolerated (the
  // power-family rungs re-normalize every iterate).
  out.report.stochasticity_defect = op.stochasticity_defect();
  if (out.report.stochasticity_defect > options.repair_tolerance) {
    throw PreconditionError(
        "robust: row-stochasticity defect " +
        sci(out.report.stochasticity_defect, 2) +
        " exceeds the repair tolerance " + sci(options.repair_tolerance, 2) +
        "; matrix-free operators cannot be renormalized in place");
  }

  // Memory admission gate: the matrix-free capacity model prices the
  // operator's own storage plus the iterate/shuffle workspace.  No grid
  // degradation exists on this path (there is no lumping hierarchy), so an
  // over-budget prediction refuses outright.
  obs::mem::OperatorCapacityInputs cin;
  cin.states = n;
  cin.operator_bytes = operator_storage_bytes;
  if (options.memory_budget_bytes > 0) {
    out.report.memory_budget_bytes = options.memory_budget_bytes;
    out.report.predicted_peak_bytes =
        obs::mem::estimate_operator_capacity(cin).peak_bytes();
    if (out.report.predicted_peak_bytes > options.memory_budget_bytes) {
      return refuse_admission(std::move(out), clock, span);
    }
  }
  const std::size_t gmres_restart =
      fit_gmres_restart(options.memory_budget_bytes, [&](std::size_t m) {
        obs::mem::OperatorCapacityInputs basis = cin;
        basis.workspace_vectors += static_cast<double>(m + 4);
        return obs::mem::estimate_operator_capacity(basis).peak_bytes();
      });

  std::vector<double> restored;
  const std::span<const double> start =
      restore_checkpoint(options, n, initial, restored, out.report);
  out.distribution =
      run_ladder({op, nullptr, nullptr, gmres_restart}, options,
                 default_matrix_free_ladder(), start, clock, out.report);
  return finish_solve(std::move(out), clock, span);
}

}  // namespace stocdr::robust
