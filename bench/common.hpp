// Shared configuration and reporting helpers for the benchmark harnesses.
//
// Each bench binary regenerates one of the paper's figures/tables (see
// DESIGN.md section 3 and EXPERIMENTS.md).  The operating points below are
// the calibrated stand-ins for the paper's OCR-lost numeric parameters:
// counter length 8 is the Figure 5 optimum, the n_r drift leaves the loop a
// ~4x tracking margin, and sigma(n_w) spans "negligible BER" to ~1e-4.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdr/capacity.hpp"
#include "cdr/config.hpp"
#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "obs/health/health.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/mem/capacity.hpp"
#include "obs/mem/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/perf.hpp"
#include "obs/prof/roofline.hpp"
#include "obs/trace.hpp"
#include "parallel/pool.hpp"
#include "robust/journal/sweep.hpp"
#include "robust/robust_solver.hpp"
#include "solvers/aggregation.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "support/timer.hpp"

namespace stocdr::bench {

/// The full-size baseline operating point (~6e4 reachable states; the
/// paper's examples are at a comparable 1e5 scale).
inline cdr::CdrConfig paper_baseline() {
  cdr::CdrConfig config;
  config.phase_points = 512;
  config.vco_phases = 16;
  config.counter_length = 8;
  config.transition_density = 0.5;
  config.max_run_length = 8;
  config.sigma_nw = 0.012;
  config.nr_mean = 0.001;
  config.nr_max = 0.003;
  config.nr_atoms = 7;
  return config;
}

/// Figure 4 bottom plot: the eye-opening jitter raised 10x.
inline cdr::CdrConfig paper_high_noise() {
  cdr::CdrConfig config = paper_baseline();
  config.sigma_nw = 10.0 * config.sigma_nw;
  return config;
}

/// Figure 5 operating point (counter length set per run).
inline cdr::CdrConfig paper_counter_sweep(std::size_t counter_length) {
  cdr::CdrConfig config = paper_baseline();
  config.sigma_nw = 0.08;
  config.counter_length = counter_length;
  return config;
}

/// One solved experiment with the numbers the paper annotates per plot.
struct SolvedCase {
  /// Per-case metric isolation.  The metrics registry is process-global;
  /// without a reset, each case's BENCH metrics snapshot would include
  /// every previous case's histogram observations and counters.  Declared
  /// first so the reset runs before the model build and solve start
  /// populating the registry.
  struct MetricsReset {
    /// Per-case RSS attribution: begun here so the kernel's RSS high-water
    /// restarts before the model build allocates anything.
    obs::PeakRssSampler rss;

    MetricsReset() {
      obs::MetricsRegistry::instance().reset_all();
      // The prof aggregates (span counters + kernel roofline inputs) are
      // process-global too; without a reset each case's perf section would
      // blend every previous case's counts.
      obs::prof::reset();
      // Likewise the mem aggregates and the live-byte high-water
      // (STOCDR_MEM=1): each case's mem section reports its own peak.
      obs::mem::reset();
      rss.begin();
    }
  };
  MetricsReset metrics_reset;

  cdr::CdrConfig config;
  cdr::CdrModel model;
  cdr::CdrChain chain;
  solvers::StationaryResult stationary;
  /// Present when the case was solved through the robust ladder.
  std::optional<robust::RobustSolveReport> robust_report;
  double ber = 0.0;

  explicit SolvedCase(const cdr::CdrConfig& cfg,
                      const solvers::MultilevelOptions& options = {})
      : config(cfg), model(cfg), chain(model.build()) {
    stationary = cdr::solve_stationary(chain, options);
    ber = cdr::bit_error_rate(model, chain, stationary.distribution);
    obs::health::record_tail_conditioning(ber, stationary.stats.residual);
  }

  /// Robust variant: the solve runs through the fallback ladder and the
  /// structured report rides along into the annotations and artifacts.
  SolvedCase(const cdr::CdrConfig& cfg, const robust::RobustOptions& options)
      : config(cfg), model(cfg), chain(model.build()) {
    robust::RobustResult result = cdr::solve_stationary_robust(chain, options);
    stationary.distribution = std::move(result.distribution);
    stationary.stats.method =
        result.report.final_method.empty()
            ? std::string("robust")
            : "robust:" + result.report.final_method;
    for (const robust::RungReport& rung : result.report.rungs) {
      stationary.stats.iterations += rung.stats.iterations;
      stationary.stats.matvec_count += rung.stats.matvec_count;
    }
    stationary.stats.seconds = result.report.seconds;
    stationary.stats.residual = result.report.residual;
    stationary.stats.converged = result.report.converged;
    robust_report = std::move(result.report);
    ber = cdr::bit_error_rate(model, chain, stationary.distribution);
    obs::health::record_tail_conditioning(ber, stationary.stats.residual);
  }

  /// The paper's annotation line above each plot:
  /// "COUNTER: 8  STDnw: 1.2e-02  MAXnr: ...  BER: ...".
  [[nodiscard]] std::string header_line() const {
    return config.summary() + "  BER: " + sci(ber, 2);
  }

  /// The paper's annotation line below each plot:
  /// "Size: ...  Iter: ...  Matrixformtime: ...  Solvetime: ...".
  [[nodiscard]] std::string footer_line() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "Size: %zu  Iter: %zu  Matrixformtime: %.2f mins  "
                  "Solvetime: %.2f mins  (residual %s, %s)",
                  chain.num_states(), stationary.stats.iterations,
                  chain.form_seconds() / 60.0,
                  stationary.stats.seconds / 60.0,
                  sci(stationary.stats.residual, 1).c_str(),
                  stationary.stats.converged ? "converged" : "NOT CONVERGED");
    return buf;
  }

  void print_header_line() const {
    std::printf("%s\n", header_line().c_str());
  }
  void print_footer_line() const {
    std::printf("%s\n", footer_line().c_str());
  }

  /// Serializes the case — configuration, problem sizes, solver telemetry
  /// including the (capped) residual trajectory, and timings — as one JSON
  /// object.  This is the machine-readable twin of the annotation lines.
  [[nodiscard]] std::string to_json(const std::string& name) const {
    obs::JsonWriter w;
    w.begin_object();
    w.field("name", name);
    // Run provenance: who built this, where it ran, and a hash of the
    // operating point — bench-diff refuses to silently compare artifacts
    // from different configurations.
    obs::RunManifest manifest = obs::current_manifest();
    manifest.config_hash = obs::fnv1a_hex(config.summary());
    w.key("manifest");
    w.raw_value(obs::manifest_to_json(manifest));
    w.key("config");
    w.begin_object();
    w.field("phase_points", std::uint64_t{config.phase_points});
    w.field("vco_phases", std::uint64_t{config.vco_phases});
    w.field("counter_length", std::uint64_t{config.counter_length});
    w.field("transition_density", config.transition_density);
    w.field("max_run_length", std::uint64_t{config.max_run_length});
    w.field("sigma_nw", config.sigma_nw);
    w.field("nr_mean", config.nr_mean);
    w.field("nr_max", config.nr_max);
    w.field("summary", config.summary());
    w.end_object();
    w.field("states", std::uint64_t{chain.num_states()});
    w.field("transitions",
            std::uint64_t{chain.chain().num_transitions()});
    w.field("ber", ber);
    w.field("matrix_form_seconds", chain.form_seconds());
    const solvers::SolverStats& stats = stationary.stats;
    w.key("solve");
    w.begin_object();
    w.field("method", stats.method);
    w.field("threads", std::uint64_t{par::effective_threads()});
    w.field("iterations", std::uint64_t{stats.iterations});
    w.field("matvecs", std::uint64_t{stats.matvec_count});
    w.field("seconds", stats.seconds);
    w.field("residual", stats.residual);
    w.field("converged", stats.converged);
    w.key("residual_history");
    w.begin_array();
    for (const double r : stats.residual_history) w.value(r);
    w.end_array();
    w.end_object();
    if (robust_report) {
      w.key("robust");
      w.raw_value(robust_report->to_json());
    }
    // ru_maxrss is a process-wide monotone max; the per-case sampler
    // resets the kernel high-water when this case began, so multi-case
    // artifacts attribute RSS to the case that actually caused it.  The
    // "source" field says whether the per-case reset worked or the number
    // is the monotone fallback.
    w.field("peak_rss_bytes", metrics_reset.rss.peak());
    w.key("rss");
    w.begin_object();
    w.field("peak_rss_bytes", metrics_reset.rss.peak());
    w.field("current_rss_bytes", obs::current_rss_bytes());
    w.field("source", metrics_reset.rss.source());
    w.end_object();
    // Perf-counter section (STOCDR_PERF=1): per-span counter aggregates,
    // the per-kernel roofline table, and derived gauges published into the
    // metrics snapshot below.  Omitted entirely when profiling is off, so
    // unprofiled artifacts are byte-identical to pre-perf ones.
    if (obs::prof::enabled()) {
      obs::prof::publish_to_metrics();
      obs::prof::publish_kernels_to_metrics();
      w.key("perf");
      w.raw_value(obs::prof::perf_section_json());
    }
    // Mem section (STOCDR_MEM=1): tracked heap totals, per-span byte
    // aggregates, component footprints, and the capacity model's
    // prediction for this chain's dimensions (so predicted-vs-actual
    // drift is visible per artifact).  Omitted entirely when tracking is
    // off, keeping untracked artifacts byte-identical.
    if (obs::mem::enabled()) {
      obs::mem::publish_to_metrics();
      obs::mem::CapacityInputs cap;
      cap.states = chain.num_states();
      cap.transitions = chain.chain().num_transitions();
      const std::uint64_t predicted =
          obs::mem::estimate_capacity(cap).peak_bytes();
      w.key("mem");
      w.raw_value(obs::mem::mem_section_json(
          predicted, std::uint64_t{chain.num_states()}));
    }
    // Per-case metrics snapshot (histograms carry p50/p90/p99); the
    // registry was reset when this case started, so these numbers belong
    // to this case alone.
    w.key("metrics");
    w.raw_value(
        obs::metrics_to_json(obs::MetricsRegistry::instance().snapshot()));
    w.end_object();
    return std::move(w).str();
  }

  /// Drops a `BENCH_<name>.json` artifact in the working directory.  The
  /// write is atomic (temp file + rename), so a crashed or concurrent bench
  /// run never leaves a truncated artifact behind.
  /// Returns false (with a note on stderr) if the file cannot be written.
  bool write_bench_json(const std::string& name) const {
    const std::string path = "BENCH_" + name + ".json";
    try {
      AtomicFileWriter writer(path);
      writer.write(to_json(name));
      writer.write("\n");
      writer.commit();
    } catch (const IoError& e) {
      std::fprintf(stderr, "bench: cannot write %s: %s\n", path.c_str(),
                   e.what());
      return false;
    }
    return true;
  }
};

/// True when bench binaries should drop BENCH_<name>.json artifacts
/// (STOCDR_BENCH_JSON set to anything but "" or "0").
inline bool bench_json_enabled() {
  const char* v = std::getenv("STOCDR_BENCH_JSON");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

/// The one per-case report path shared by all bench binaries: the paper's
/// annotation lines (optionally wrapped around the density plots), plus the
/// BENCH_<name>.json artifact when STOCDR_BENCH_JSON is set.  Emits a
/// "bench.report" span so traced runs show reporting next to solve spans.
void print_density_plots(const SolvedCase& solved);
inline void report_case(const std::string& name, const SolvedCase& solved,
                        bool with_densities = false) {
  obs::Span span("bench.report");
  if (span.active()) span.attr("case", std::string_view(name));
  solved.print_header_line();
  if (with_densities) print_density_plots(solved);
  solved.print_footer_line();
  if (solved.robust_report) {
    std::printf("robust: %s\n", solved.robust_report->summary().c_str());
  }
  if (bench_json_enabled()) solved.write_bench_json(name);
}

// ---------------------------------------------------------------------------
// Journaled sweep mode (the crash-consistency story, robust/journal).
//
// When STOCDR_SWEEP_JOURNAL names a journal file, a bench binary runs its
// points through the resumable sweep runner instead of the direct path:
// every completed point is journaled with an fsync'd append, a killed run
// (SIGKILL included) resumes by replaying completed points from the
// journal, and the final BENCH_<name>_sweep.json artifact is byte-identical
// to an uninterrupted run's — the artifact depends only on deterministic
// per-point results, never on wall-clock or host facts.

/// The journal path for this run ("" disables journaled mode).
inline const char* sweep_journal_path() {
  const char* v = std::getenv("STOCDR_SWEEP_JOURNAL");
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

/// True when STOCDR_SWEEP_COARSE asks journaled sweeps to shrink the phase
/// grid (256 points, the same coarse grid fig5's extended sweep uses) — the
/// chaos CI kills and resumes sweeps repeatedly and needs each point to
/// solve in seconds, not minutes.  The coarse grid changes the sweep's
/// config hash, so coarse and full journals/artifacts never mix.
inline bool sweep_coarse_requested() {
  const char* v = std::getenv("STOCDR_SWEEP_COARSE");
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

/// One named point of a journaled sweep.
struct SweepPointSpec {
  std::string key;
  cdr::CdrConfig config;
};

/// The deterministic per-point result: exactly the fields that are
/// bit-reproducible across runs at a fixed thread count (config, problem
/// sizes, BER, solver counts and residual) — no seconds, no manifest, no
/// RSS.  This is what the journal replays and the sweep artifact is built
/// from, so resumed artifacts match uninterrupted ones byte for byte.
inline std::string deterministic_point_json(const SolvedCase& solved) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("summary", solved.config.summary());
  w.field("states", std::uint64_t{solved.chain.num_states()});
  w.field("transitions",
          std::uint64_t{solved.chain.chain().num_transitions()});
  w.field("ber", solved.ber);
  const solvers::SolverStats& stats = solved.stationary.stats;
  w.field("method", stats.method);
  w.field("iterations", std::uint64_t{stats.iterations});
  w.field("matvecs", std::uint64_t{stats.matvec_count});
  w.field("residual", stats.residual);
  w.field("converged", stats.converged);
  w.end_object();
  return std::move(w).str();
}

/// Runs `points` through the resumable sweep runner and writes
/// BENCH_<bench_name>_sweep.json.  The sweep's config hash covers the bench
/// name and every point's key + operating point, so a journal left behind
/// by a different sweep (or grid) is discarded rather than replayed.
inline int run_journaled_sweep(const std::string& bench_name,
                               std::vector<SweepPointSpec> points) {
  const char* journal_path = sweep_journal_path();
  STOCDR_REQUIRE(journal_path != nullptr,
                 "run_journaled_sweep: STOCDR_SWEEP_JOURNAL is not set");
  if (sweep_coarse_requested()) {
    for (SweepPointSpec& p : points) p.config.phase_points = 256;
  }

  std::string identity = bench_name;
  std::vector<std::string> keys;
  keys.reserve(points.size());
  for (const SweepPointSpec& p : points) {
    identity += "|" + p.key + "=" + p.config.summary();
    keys.push_back(p.key);
  }
  const std::string config_hash = obs::fnv1a_hex(identity);

  // ETA pricing: the capacity model's predicted transition count is the
  // per-point cost unit (pure config-level prediction, no build), so the
  // sweep runner can estimate remaining seconds from solved neighbors even
  // when points differ wildly in size.
  std::vector<double> costs;
  costs.reserve(points.size());
  for (const SweepPointSpec& p : points) {
    costs.push_back(
        static_cast<double>(cdr::estimate_cdr_capacity(p.config).transitions));
  }

  const auto solve_point = [&](const std::string& key) -> std::string {
    for (const SweepPointSpec& p : points) {
      if (p.key != key) continue;
      std::printf("solving point %s ...\n", key.c_str());
      const SolvedCase solved(p.config);
      return deterministic_point_json(solved);
    }
    throw PreconditionError("run_journaled_sweep: unknown point " + key);
  };

  const robust::jnl::SweepOutcome outcome = robust::jnl::run_sweep(
      journal_path, config_hash, keys, solve_point, costs);
  std::printf("sweep %s: %zu point(s) solved, %zu replayed from %s",
              bench_name.c_str(), outcome.computed, outcome.skipped,
              journal_path);
  if (outcome.journal.torn_tail_bytes > 0) {
    std::printf(" (%zu torn tail byte(s) truncated)",
                outcome.journal.torn_tail_bytes);
  }
  if (outcome.journal.malformed_lines > 0) {
    std::printf(" (%zu malformed line(s) skipped)",
                outcome.journal.malformed_lines);
  }
  std::printf("\n");

  const std::string artifact = "BENCH_" + bench_name + "_sweep.json";
  robust::jnl::write_sweep_artifact(artifact, bench_name, config_hash, keys,
                                    outcome.results);
  std::printf("wrote %s\n", artifact.c_str());
  return 0;
}

/// Prints the two stationary densities the paper plots in Figures 4/5:
/// the phase error Phi and the phase-detector input Phi + n_w.
inline void print_density_plots(const SolvedCase& solved) {
  const auto& grid = solved.model.grid();
  const auto phase_d = cdr::phase_density(solved.model, solved.chain,
                                          solved.stationary.distribution);
  std::printf("stationary density of the phase error Phi (UI):\n%s",
              ascii_density_plot(grid.values(), phase_d).c_str());
  const auto xs = grid.values();
  const auto pd_d = cdr::pd_input_density(
      solved.model, solved.chain, solved.stationary.distribution, xs);
  std::printf(
      "stationary density of the PD input Phi + n_w (UI):\n%s",
      ascii_density_plot(xs, pd_d).c_str());
}

}  // namespace stocdr::bench
