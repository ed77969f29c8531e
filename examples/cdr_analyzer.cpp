// cdr_analyzer — the command-line front end: read an operating point from a
// config file (or use the built-in default), run the full analysis, print a
// report, and optionally export the model artifacts.
//
// Usage:
//   cdr_analyzer [config.txt] [--export-prefix PREFIX] [--print-config]
//                [--robust] [--tolerance EPS] [--time-budget SECONDS]
//                [--metrics-out FILE]
//                [--checkpoint FILE [--checkpoint-period N]]
//                [--journal FILE] [--inject-fault nan|stall]
//                [--mem-estimate] [--memory-budget BYTES]
//                [--matrix-free auto|on|off]
//
// With --matrix-free on the TPM is never materialized: the solve runs
// through the Kronecker descriptor (cdr/kron_model) and the matrix-free
// robust ladder.  The default, auto, picks the representation under a
// --memory-budget: when the explicit CSR's predicted peak exceeds the
// budget but the descriptor path fits, it switches to matrix-free instead
// of refusing.  `off` forces the explicit path (the pre-PR behaviour).
//
// With --mem-estimate the analytic capacity model (cdr/capacity) predicts
// the chain dimensions and peak heap footprint from the config alone and
// prints the breakdown table — nothing is built or solved.
//
// With --memory-budget the robust solve runs behind the memory admission
// gate: a predicted footprint over BYTES degrades to a coarser grid that
// fits, or refuses with a structured report and exit code 4 (never an
// OOM kill).
//
// With --metrics-out the final metrics snapshot (counters, gauges, and
// histograms with p50/p90/p99 quantiles) is dumped as JSON — together with
// the run-provenance manifest — via an atomic temp+rename write.
//
// Every notable condition (rung changes, checkpoint writes/restores,
// admission decisions, health alarms, fault firings) is an event in the
// trace stream: set STOCDR_TRACE_FILE=FILE (or STOCDR_TRACE_RING /
// STOCDR_TRACE=console) and inspect it with `stocdr-obsctl events FILE`.
//
// With --robust the stationary solve runs through the fault-tolerant
// fallback ladder (src/robust/): divergence sentinels, checkpoint/restart
// between methods, and an optional --time-budget wall-clock deadline that
// returns the best iterate reached instead of hanging.
//
// Exit codes: 0 converged, 1 error, 2 usage (a malformed flag value names
// the flag), 4 refused by the memory admission gate, 5 the stationary solve
// did not converge — the measures are still printed, under a line saying
// they come from an unconverged iterate.
//
// With --checkpoint the robust solve persists durable on-disk checkpoints
// (robust/checkpoint) keyed to this operating point's config hash, and a
// restarted analysis warm-starts from the newest valid generation; torn or
// corrupted files degrade to a counted cold start.
//
// With --journal a converged analysis result (the measures table) is
// recorded in a crash-recoverable journal (robust/journal) keyed to the
// config hash: a re-run with the same operating point replays the recorded
// measures instead of solving again.
//
// --inject-fault is a front end of the deterministic fault-injection
// engine (robust/faultinject): `nan` installs the plan "solver:nan" and
// `stall` installs "solver:stall".  Arbitrary plans (any site, any firing
// count) can be set via the STOCDR_FAULT_PLAN environment variable.
//
// With --export-prefix the tool writes PREFIX.mtx (the transition matrix,
// Matrix Market), PREFIX.eta.mtx (the stationary vector) and PREFIX.dot
// (the FSM network diagram for Graphviz).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "analysis/eigen.hpp"
#include "cdr/capacity.hpp"
#include "cdr/config_io.hpp"
#include "cdr/kron_model.hpp"
#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "fsm/graphviz.hpp"
#include "obs/analyze/json_parse.hpp"
#include "obs/health/health.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/mem/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/perf.hpp"
#include "obs/prof/roofline.hpp"
#include "parallel/pool.hpp"
#include "robust/faultinject/faultinject.hpp"
#include "robust/journal/journal.hpp"
#include "sparse/io.hpp"
#include "support/atomic_file.hpp"
#include "support/text.hpp"
#include "support/timer.hpp"

namespace {

using namespace stocdr;

/// Exit code of a run whose stationary solve did not converge.
constexpr int kExitUnconverged = 5;

/// Parses one numeric flag value strictly (support/text.hpp): false, with
/// the reason on stderr, on trailing characters, a sign on a count, or a
/// non-finite or out-of-range number.
template <typename T>
bool parse_flag(const char* text, const char* flag, T& out) {
  try {
    if constexpr (std::is_same_v<T, double>) {
      out = parse_double(text, flag);
    } else {
      out = parse_size(text, flag);
    }
    return true;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

int run(int argc, char** argv) {
  cdr::CdrConfig config;
  std::string export_prefix;
  std::string metrics_out;
  bool print_config = false;
  bool mem_estimate = false;
  std::size_t memory_budget = 0;
  bool use_robust = false;
  std::string inject_fault;
  std::string checkpoint_path;
  std::size_t checkpoint_period = 16;
  std::string journal_path;
  double time_budget = std::numeric_limits<double>::infinity();
  double tolerance = 0.0;  // 0 = solver default
  std::size_t threads = 0;  // 0 = inherit STOCDR_THREADS (default serial)
  std::string matrix_free_mode = "auto";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--export-prefix") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--export-prefix needs a value\n");
        return 2;
      }
      export_prefix = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--metrics-out needs a file path\n");
        return 2;
      }
      metrics_out = argv[++i];
    } else if (arg == "--print-config") {
      print_config = true;
    } else if (arg == "--mem-estimate") {
      mem_estimate = true;
    } else if (arg == "--memory-budget") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--memory-budget needs a value (bytes)\n");
        return 2;
      }
      if (!parse_flag(argv[++i], "--memory-budget", memory_budget)) return 2;
      if (memory_budget == 0) {
        std::fprintf(stderr, "--memory-budget must be >= 1 byte\n");
        return 2;
      }
      use_robust = true;  // the admission gate lives in the robust harness
    } else if (arg == "--robust") {
      use_robust = true;
    } else if (arg == "--tolerance") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--tolerance needs a value (L1 residual)\n");
        return 2;
      }
      if (!parse_flag(argv[++i], "--tolerance", tolerance)) return 2;
      if (!(tolerance > 0.0)) {
        std::fprintf(stderr, "--tolerance must be > 0\n");
        return 2;
      }
    } else if (arg == "--time-budget") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--time-budget needs a value (seconds)\n");
        return 2;
      }
      if (!parse_flag(argv[++i], "--time-budget", time_budget)) return 2;
      if (time_budget < 0.0) {
        std::fprintf(stderr, "--time-budget must be >= 0\n");
        return 2;
      }
      use_robust = true;  // a budget only makes sense on the robust path
    } else if (arg == "--inject-fault") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--inject-fault needs 'nan' or 'stall'\n");
        return 2;
      }
      inject_fault = argv[++i];
      if (inject_fault != "nan" && inject_fault != "stall") {
        std::fprintf(stderr, "--inject-fault needs 'nan' or 'stall', got %s\n",
                     inject_fault.c_str());
        return 2;
      }
      use_robust = true;  // the injector rides the robust sentinel
    } else if (arg == "--checkpoint") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint needs a file path\n");
        return 2;
      }
      checkpoint_path = argv[++i];
      use_robust = true;  // durable checkpoints ride the robust harness
    } else if (arg == "--checkpoint-period") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--checkpoint-period needs a value\n");
        return 2;
      }
      if (!parse_flag(argv[++i], "--checkpoint-period", checkpoint_period)) {
        return 2;
      }
      if (checkpoint_period == 0) {
        std::fprintf(stderr, "--checkpoint-period must be >= 1\n");
        return 2;
      }
    } else if (arg == "--journal") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--journal needs a file path\n");
        return 2;
      }
      journal_path = argv[++i];
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads needs a value (N or 'auto')\n");
        return 2;
      }
      const char* spec = argv[++i];
      std::size_t count = 0;
      if (std::strcmp(spec, "auto") != 0 &&
          !parse_flag(spec, "--threads", count)) {
        return 2;
      }
      threads = par::parse_threads_spec(spec);
    } else if (arg == "--matrix-free") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--matrix-free needs 'auto', 'on', or 'off'\n");
        return 2;
      }
      matrix_free_mode = argv[++i];
      if (matrix_free_mode != "auto" && matrix_free_mode != "on" &&
          matrix_free_mode != "off") {
        std::fprintf(stderr,
                     "--matrix-free needs 'auto', 'on', or 'off', got %s\n",
                     matrix_free_mode.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: cdr_analyzer [config.txt] [--export-prefix PREFIX] "
          "[--print-config] [--robust] [--tolerance EPS] "
          "[--time-budget SECONDS] "
          "[--inject-fault nan|stall] [--threads N|auto] "
          "[--metrics-out FILE] [--checkpoint FILE] "
          "[--checkpoint-period N] [--journal FILE] "
          "[--mem-estimate] [--memory-budget BYTES] "
          "[--matrix-free auto|on|off]\n"
          "exit codes: 0 converged, 1 error, 2 usage, 4 refused by the "
          "memory budget, 5 the solve did not converge (measures printed "
          "from the unconverged iterate)\n");
      return 0;
    } else {
      config = cdr::config_from_file(arg);
      std::printf("loaded operating point from %s\n", arg.c_str());
    }
  }
  if (print_config) {
    std::printf("%s\n", cdr::to_text(config).c_str());
    return 0;
  }
  if (mem_estimate) {
    // Pure prediction from the config — nothing is built or solved.
    const cdr::CdrCapacityEstimate est = cdr::estimate_cdr_capacity(config);
    const auto mib = [](std::uint64_t bytes) {
      return fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 2) +
             " MiB";
    };
    std::printf("== capacity estimate ==\n%s\n\n", config.summary().c_str());
    std::printf("predicted states:      %llu\n",
                static_cast<unsigned long long>(est.states));
    std::printf("predicted transitions: %llu\n\n",
                static_cast<unsigned long long>(est.transitions));
    TextTable table({"owner", "bytes"});
    table.add_row({"chain CSR", mib(est.breakdown.csr_bytes)});
    table.add_row({"build transient", mib(est.breakdown.build_bytes)});
    table.add_row({"annotations", mib(est.breakdown.annotation_bytes)});
    table.add_row({"lumping hierarchy", mib(est.breakdown.hierarchy_bytes)});
    table.add_row({"coarse chains", mib(est.breakdown.coarse_bytes)});
    table.add_row({"solver workspace", mib(est.breakdown.workspace_bytes)});
    table.add_row({"fixed overhead", mib(est.breakdown.fixed_bytes)});
    table.add_row({"peak (build phase)",
                   mib(est.breakdown.build_phase_bytes())});
    table.add_row({"peak (solve phase)",
                   mib(est.breakdown.solve_phase_bytes())});
    table.add_row({"predicted peak", mib(est.peak_bytes())});
    std::printf("%s", table.render().c_str());
    if (memory_budget > 0) {
      const bool fits = est.peak_bytes() <= memory_budget;
      std::printf("\nbudget %s: %s\n", mib(memory_budget).c_str(),
                  fits ? "fits" : "over budget (solve would degrade/refuse)");
    }
    return 0;
  }

  // One ambient scope around everything: the solvers (options left at
  // threads=0) inherit it, as do the measure kernels after the solve.
  const par::ThreadScope thread_scope(threads);
  std::printf("== stocdr analyzer ==\n%s\n\n", config.summary().c_str());
  if (par::effective_threads() > 1) {
    std::printf("threads: %zu\n\n", par::effective_threads());
  }

  const std::string config_hash = obs::fnv1a_hex(config.summary());

  // Resumable journal: when this exact operating point (by config hash) has
  // already completed under this journal, replay the recorded measures
  // instead of solving again.  Torn or foreign journals recover per
  // robust/journal's rules (truncate the tail, discard on mismatch).
  std::unique_ptr<robust::jnl::SweepJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<robust::jnl::SweepJournal>(journal_path,
                                                          config_hash);
    if (const std::string* cached = journal->result("analysis")) {
      const auto parsed = obs::analyze::parse_json(*cached);
      if (parsed.has_value() && parsed->is_object()) {
        const auto num = [&](const char* key) {
          const obs::analyze::JsonValue* v = parsed->find(key);
          return v != nullptr ? v->number_or(0.0) : 0.0;
        };
        std::printf("replaying measures journaled in %s (config hash %s)\n",
                    journal_path.c_str(), config_hash.c_str());
        TextTable report({"measure", "value"});
        report.add_row({"bit-error rate", sci(num("ber"), 3)});
        report.add_row({"cycle-slip rate / bit", sci(num("slip_rate"), 3)});
        report.add_row({"mean bits between slips",
                        sci(num("slip_mean_between"), 3)});
        report.add_row({"slip flux up : down",
                        sci(num("slip_rate_up"), 1) + " : " +
                            sci(num("slip_rate_down"), 1)});
        report.add_row({"static phase offset (UI)",
                        fixed(num("static_offset"), 5)});
        report.add_row({"rms phase error (UI)", fixed(num("rms"), 5)});
        report.add_row({"|lambda_2| (loop memory)",
                        fixed(num("lambda2"), 6) + "  (" +
                            fixed(num("mixing_bits"), 0) + " bits)"});
        std::printf("%s", report.render().c_str());
        return 0;
      }
      std::fprintf(stderr,
                   "journal record for this config is unreadable; re-running "
                   "the analysis\n");
    }
  }

  // ---- representation selection -----------------------------------------
  bool matrix_free = false;
  if (matrix_free_mode == "on") {
    std::string reason;
    if (!cdr::kronecker_supported(config, &reason)) {
      std::fprintf(stderr, "--matrix-free on: %s\n", reason.c_str());
      return 2;
    }
    matrix_free = true;
    use_robust = true;  // the matrix-free ladder lives in the robust harness
  } else if (matrix_free_mode == "auto" && memory_budget > 0) {
    std::string reason;
    if (cdr::kronecker_supported(config, &reason)) {
      const cdr::CdrCapacityEstimate explicit_est =
          cdr::estimate_cdr_capacity(config);
      const cdr::KronCapacityEstimate kron_est =
          cdr::estimate_kron_capacity(config);
      if (explicit_est.peak_bytes() > memory_budget &&
          kron_est.peak_bytes() <= memory_budget) {
        std::printf(
            "representation: explicit CSR predicted peak %llu bytes exceeds "
            "the %zu-byte budget; switching to the matrix-free Kronecker "
            "descriptor (predicted peak %llu bytes)\n\n",
            static_cast<unsigned long long>(explicit_est.peak_bytes()),
            memory_budget,
            static_cast<unsigned long long>(kron_est.peak_bytes()));
        matrix_free = true;
      }
    }
  }

  // ---- pre-build admission gate (explicit representation) ---------------
  // The in-solve gate cannot help once the *enumeration* would blow the
  // budget: a predicted build-phase footprint over budget is refused before
  // anything is allocated, with the same structured report and exit code
  // the solve-phase refusal produces.
  if (!matrix_free && memory_budget > 0) {
    const cdr::CdrCapacityEstimate est = cdr::estimate_cdr_capacity(config);
    if (est.breakdown.build_phase_bytes() > memory_budget) {
      robust::RobustSolveReport refusal;
      refusal.states = est.states;
      refusal.memory_budget_bytes = memory_budget;
      refusal.predicted_peak_bytes = est.peak_bytes();
      refusal.admission_refused = true;
      std::printf("solve (robust): %s\n", refusal.summary().c_str());
      std::printf("%s\n", refusal.to_json().c_str());
      return 4;
    }
  }

  const cdr::CdrModel model(config);
  std::optional<cdr::CdrChain> chain;
  std::optional<cdr::KroneckerCdrModel> kron;
  if (matrix_free) {
    kron.emplace(model);
    std::printf(
        "kron descriptor: %zu states (full product), %zu terms, %zu factor "
        "bytes (formed in %s)\n",
        kron->num_states(), kron->descriptor().num_terms(),
        kron->storage_bytes(), format_duration(kron->form_seconds()).c_str());
  } else {
    chain.emplace(model.build());
    std::printf("chain: %zu states, %zu transitions (formed in %s)\n",
                chain->num_states(), chain->chain().num_transitions(),
                format_duration(chain->form_seconds()).c_str());
  }

  solvers::StationaryResult solution;
  if (use_robust) {
    robust::RobustOptions ropts;
    ropts.time_budget_seconds = time_budget;
    ropts.memory_budget_bytes = memory_budget;
    if (tolerance > 0.0) ropts.tolerance = tolerance;
    // --inject-fault rides the deterministic fault-injection engine: the
    // bare plans below fire on every arming of the sentinel's "solver"
    // site, which reproduces the original ad-hoc injectors exactly.
    if (inject_fault == "nan") {
      robust::fi::install_plan(robust::fi::FaultPlan::parse("solver:nan"));
    } else if (inject_fault == "stall") {
      robust::fi::install_plan(robust::fi::FaultPlan::parse("solver:stall"));
      // Tighten the sentinel so the injected stall trips before the rung
      // genuinely converges (the injection only fools the sentinel, not the
      // solver's own convergence test).
      ropts.sentinel_stride = 1;
      ropts.stall_window = 4;
    }
    if (!checkpoint_path.empty()) {
      ropts.checkpoint_path = checkpoint_path;
      ropts.checkpoint_period = checkpoint_period;
      ropts.checkpoint_config_hash = config_hash;
    }
    auto result = matrix_free ? cdr::solve_stationary_robust(*kron, ropts)
                              : cdr::solve_stationary_robust(*chain, ropts);
    if (result.report.admission_refused) {
      // Structured refusal: the gate predicted an over-budget footprint and
      // no hierarchy level fits.  Print the report and exit distinctly —
      // this is the designed alternative to an OOM kill.
      std::printf("solve (robust): %s\n", result.report.summary().c_str());
      std::printf("%s\n", result.report.to_json().c_str());
      return 4;
    }
    std::printf("solve (robust): %s, residual %s, %s, %zu rung(s), "
                "%zu checkpoint(s)\n\n",
                result.report.summary().c_str(),
                sci(result.report.residual, 1).c_str(),
                format_duration(result.report.seconds).c_str(),
                result.report.rungs.size(), result.report.checkpoints_taken);
    if (!result.report.flight_dump_path.empty()) {
      std::printf("flight recorder dump: %s\n\n",
                  result.report.flight_dump_path.c_str());
    }
    if (result.report.durable_checkpoints > 0 ||
        result.report.checkpoint_write_failures > 0) {
      std::printf("durable checkpoints: %zu written to %s (%zu failed)\n\n",
                  result.report.durable_checkpoints, checkpoint_path.c_str(),
                  result.report.checkpoint_write_failures);
    }
    solution.distribution = std::move(result.distribution);
    solution.stats.residual = result.report.residual;
    solution.stats.converged = result.report.converged;
  } else {
    solvers::MultilevelOptions mopts;
    if (tolerance > 0.0) mopts.tolerance = tolerance;
    solution = cdr::solve_stationary(*chain, mopts);
    std::printf("solve: %zu cycles, residual %s, %s (%s)\n\n",
                solution.stats.iterations,
                sci(solution.stats.residual, 1).c_str(),
                format_duration(solution.stats.seconds).c_str(),
                solution.stats.converged ? "converged" : "NOT CONVERGED");
  }

  const auto& eta = solution.distribution;
  const double ber = matrix_free ? kron->bit_error_rate(eta)
                                 : cdr::bit_error_rate(model, *chain, eta);
  // How many leading digits of this BER the solve residual actually
  // supports (gauges health.tail_mass / health.tail_digits when enabled).
  obs::health::record_tail_conditioning(ber, solution.stats.residual);
  const auto slips = matrix_free ? kron->slip_stats(eta)
                                 : cdr::slip_stats(model, *chain, eta);
  const auto moments = matrix_free
                           ? kron->phase_error_moments(eta)
                           : cdr::phase_error_moments(model, *chain, eta);
  // The subdominant eigenvalue needs deflated power iteration on the
  // explicit matrix; the matrix-free path reports it as unavailable rather
  // than paying a second full solve through the descriptor.
  double lambda2_mag = 0.0;
  double mixing_bits = 0.0;
  if (!matrix_free) {
    const auto lambda2 =
        analysis::subdominant_eigenvalue(chain->chain(), eta, 1e-7, 50000);
    lambda2_mag = lambda2.magnitude;
    mixing_bits = lambda2.mixing_steps();
  }

  if (!solution.stats.converged) {
    std::printf("NOT CONVERGED: the measures below come from an unconverged "
                "iterate (residual %s); exit %d\n",
                sci(solution.stats.residual, 1).c_str(), kExitUnconverged);
  }
  TextTable report({"measure", "value"});
  report.add_row({"bit-error rate", sci(ber, 3)});
  report.add_row({"cycle-slip rate / bit", sci(slips.rate(), 3)});
  report.add_row({"mean bits between slips",
                  sci(slips.mean_cycles_between(), 3)});
  report.add_row({"slip flux up : down",
                  sci(slips.rate_up, 1) + " : " + sci(slips.rate_down, 1)});
  report.add_row({"static phase offset (UI)", fixed(moments.mean, 5)});
  report.add_row({"rms phase error (UI)", fixed(moments.rms, 5)});
  report.add_row({"|lambda_2| (loop memory)",
                  matrix_free ? std::string("n/a (matrix-free)")
                              : fixed(lambda2_mag, 6) + "  (" +
                                    fixed(mixing_bits, 0) + " bits)"});
  std::printf("%s", report.render().c_str());

  // A replay prints journaled measures as a finished analysis, so only
  // converged ones are recorded.
  if (journal != nullptr && solution.stats.converged &&
      !journal->has("analysis")) {
    obs::JsonWriter w;
    w.begin_object();
    w.field("ber", ber);
    w.field("slip_rate", slips.rate());
    w.field("slip_mean_between", slips.mean_cycles_between());
    w.field("slip_rate_up", slips.rate_up);
    w.field("slip_rate_down", slips.rate_down);
    w.field("static_offset", moments.mean);
    w.field("rms", moments.rms);
    w.field("lambda2", lambda2_mag);
    w.field("mixing_bits", mixing_bits);
    w.end_object();
    journal->append("analysis", std::move(w).str());
    std::printf("\njournaled measures to %s\n", journal_path.c_str());
  }

  if (!export_prefix.empty() && matrix_free) {
    std::printf("\n--export needs the explicit representation; skipping "
                "(rerun with --matrix-free off)\n");
  } else if (!export_prefix.empty()) {
    sparse::write_matrix_market_file(export_prefix + ".mtx",
                                     chain->chain().to_row_stochastic(),
                                     "stocdr TPM: " + config.summary());
    std::ofstream eta_out(export_prefix + ".eta.mtx");
    sparse::write_vector_market(eta_out, eta, "stationary distribution");
    std::ofstream dot(export_prefix + ".dot");
    dot << fsm::network_to_dot(model.network());
    std::printf("\nexported %s.mtx, %s.eta.mtx, %s.dot\n",
                export_prefix.c_str(), export_prefix.c_str(),
                export_prefix.c_str());
  }

  if (!metrics_out.empty()) {
    obs::RunManifest manifest = obs::current_manifest();
    manifest.config_hash = config_hash;
    // Stamp the process high-water RSS so scale jobs can assert a ceiling
    // from the snapshot alone (gauges are filtered like any other metric),
    // and fold the telemetry aggregates (mem components, perf kernels)
    // into gauges when their subsystems are on.
    obs::MetricsRegistry::instance()
        .gauge("process.peak_rss_bytes")
        .set(static_cast<double>(obs::peak_rss_bytes()));
    if (obs::mem::enabled()) obs::mem::publish_to_metrics();
    if (obs::prof::enabled()) {
      obs::prof::publish_to_metrics();
      obs::prof::publish_kernels_to_metrics();
    }
    obs::JsonWriter w;
    w.begin_object();
    w.key("manifest");
    w.raw_value(obs::manifest_to_json(manifest));
    w.key("metrics");
    w.raw_value(
        obs::metrics_to_json(obs::MetricsRegistry::instance().snapshot()));
    w.end_object();
    AtomicFileWriter writer(metrics_out);
    writer.write(std::move(w).str());
    writer.write("\n");
    writer.commit();
    std::printf("\nwrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  return solution.stats.converged ? 0 : kExitUnconverged;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
