// Scaling proof for the matrix-free Kronecker path (docs/KRONECKER.md):
// sweeps the phase grid M in {512, 1024, 2048, 4096} at the Figure-4-style
// operating point scaled up (max run 64, counter 8 — ~61 k to ~3.9 M product
// states) and solves each point through the descriptor, timing formation and
// the robust operator ladder.  The explicit CSR twin runs alongside at every
// size the capacity model prices within the explicit budget, so one artifact
// pair shows the crossover: matrix-free formation stays ~0 while explicit
// formation and footprint grow linearly with the state count.
//
// Artifacts (STOCDR_BENCH_JSON=1): BENCH_kron_free_m<M>.json per matrix-free
// point and BENCH_kron_explicit_m<M>.json per explicit point that fits.  The
// JSON mirrors bench/common.hpp's SolvedCase schema (same dotted keys
// bench-diff gates on); descriptor points report factor bytes as
// "transitions" — the stored-entry count is the honest analogue — and the
// descriptor build time as "matrix_form_seconds".
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cdr/capacity.hpp"
#include "cdr/kron_model.hpp"
#include "common.hpp"

namespace {

using namespace stocdr;

/// Explicit-path peak bytes a bench host is assumed to afford; points
/// priced above this run matrix-free only (the point of the sweep).
constexpr std::uint64_t kExplicitBudgetBytes = 1ull << 30;  // 1 GiB

/// Budget handed to the matrix-free solves — the same 850 MB the CI
/// kron-scale job uses, so the GMRES restart (and with it the Krylov-basis
/// footprint) shrinks exactly as it does there and the artifact's peak RSS
/// tells the bounded-memory story.  Unbudgeted, GMRES would keep its full
/// restart-80 basis (~2.6 GB at M = 4096) and bury the point of the path.
constexpr std::size_t kFreeBudgetBytes = 850000000;

cdr::CdrConfig scale_point(std::size_t phase_points) {
  cdr::CdrConfig config = bench::paper_baseline();
  config.phase_points = phase_points;
  config.max_run_length = 64;  // deep run-length tail: x8 the baseline states
  return config;
}

/// The matrix-free twin of bench::SolvedCase: same artifact schema, solved
/// through the descriptor.  Kept local to this bench — the explicit
/// SolvedCase stays the one shared harness.
struct KronSolvedCase {
  bench::SolvedCase::MetricsReset metrics_reset;

  cdr::CdrConfig config;
  cdr::CdrModel model;
  cdr::KroneckerCdrModel kron;
  robust::RobustSolveReport report;
  std::vector<double> distribution;
  double ber = 0.0;

  explicit KronSolvedCase(const cdr::CdrConfig& cfg,
                          const robust::RobustOptions& options)
      : config(cfg), model(cfg), kron(model) {
    robust::RobustResult result =
        cdr::solve_stationary_robust(kron, options);
    report = std::move(result.report);
    distribution = std::move(result.distribution);
    ber = kron.bit_error_rate(distribution);
    obs::health::record_tail_conditioning(ber, report.residual);
  }

  [[nodiscard]] std::string to_json(const std::string& name) const {
    obs::JsonWriter w;
    w.begin_object();
    w.field("name", name);
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
    w.field("states", std::uint64_t{kron.num_states()});
    // Stored-entry analogue of the explicit path's nnz: total factor bytes.
    w.field("transitions", std::uint64_t{kron.storage_bytes()});
    w.field("ber", ber);
    w.field("matrix_form_seconds", kron.form_seconds());
    w.key("solve");
    w.begin_object();
    w.field("method", report.final_method.empty()
                          ? std::string("robust")
                          : "robust:" + report.final_method);
    w.field("threads", std::uint64_t{par::effective_threads()});
    std::uint64_t iterations = 0, matvecs = 0;
    for (const robust::RungReport& rung : report.rungs) {
      iterations += rung.stats.iterations;
      matvecs += rung.stats.matvec_count;
    }
    w.field("iterations", iterations);
    w.field("matvecs", matvecs);
    w.field("seconds", report.seconds);
    w.field("residual", report.residual);
    w.field("converged", report.converged);
    w.end_object();
    w.key("robust");
    w.raw_value(report.to_json());
    w.field("peak_rss_bytes", metrics_reset.rss.peak());
    w.key("rss");
    w.begin_object();
    w.field("peak_rss_bytes", metrics_reset.rss.peak());
    w.field("current_rss_bytes", obs::current_rss_bytes());
    w.field("source", metrics_reset.rss.source());
    w.end_object();
    if (obs::prof::enabled()) {
      obs::prof::publish_to_metrics();
      obs::prof::publish_kernels_to_metrics();
      w.key("perf");
      w.raw_value(obs::prof::perf_section_json());
    }
    if (obs::mem::enabled()) {
      obs::mem::publish_to_metrics();
      const std::uint64_t predicted =
          cdr::estimate_kron_capacity(config).peak_bytes();
      w.key("mem");
      w.raw_value(obs::mem::mem_section_json(
          predicted, std::uint64_t{kron.num_states()}));
    }
    w.key("metrics");
    w.raw_value(
        obs::metrics_to_json(obs::MetricsRegistry::instance().snapshot()));
    w.end_object();
    return std::move(w).str();
  }

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

void run_point(std::size_t phase_points) {
  const cdr::CdrConfig config = scale_point(phase_points);
  std::string suffix = "m";
  suffix += std::to_string(phase_points);

  const cdr::CdrCapacityEstimate explicit_est =
      cdr::estimate_cdr_capacity(config);
  const cdr::KronCapacityEstimate kron_est =
      cdr::estimate_kron_capacity(config);
  std::printf("== M = %zu ==\n", phase_points);
  std::printf(
      "capacity: explicit peak %.0f MiB (%llu states), descriptor peak "
      "%.0f MiB (%llu full-product states)\n",
      static_cast<double>(explicit_est.peak_bytes()) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(explicit_est.states),
      static_cast<double>(kron_est.peak_bytes()) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(kron_est.states));

  {
    robust::RobustOptions options;
    options.tolerance = 1e-10;
    options.memory_budget_bytes = kFreeBudgetBytes;
    const KronSolvedCase solved(config, options);
    std::printf(
        "matrix-free: formed in %.3fs (%zu factor bytes), %s, residual "
        "%s, %.1fs, BER %s, peak RSS %.0f MiB\n",
        solved.kron.form_seconds(), solved.kron.storage_bytes(),
        solved.report.converged ? "converged" : "NOT CONVERGED",
        sci(solved.report.residual, 1).c_str(), solved.report.seconds,
        sci(solved.ber, 2).c_str(),
        static_cast<double>(solved.metrics_reset.rss.peak()) /
            (1024.0 * 1024.0));
    if (bench::bench_json_enabled()) {
      solved.write_bench_json("kron_free_" + suffix);
    }
  }

  if (explicit_est.peak_bytes() <= kExplicitBudgetBytes) {
    robust::RobustOptions options;
    options.tolerance = 1e-10;
    const bench::SolvedCase solved(config, options);
    std::printf(
        "explicit:    formed in %.3fs (%zu transitions), %s\n",
        solved.chain.form_seconds(), solved.chain.chain().num_transitions(),
        solved.footer_line().c_str());
    if (bench::bench_json_enabled()) {
      solved.write_bench_json("kron_explicit_" + suffix);
    }
  } else {
    std::printf(
        "explicit:    skipped — predicted peak %.0f MiB exceeds the %.0f "
        "MiB bench budget (this is the regime the descriptor exists for)\n",
        static_cast<double>(explicit_est.peak_bytes()) / (1024.0 * 1024.0),
        static_cast<double>(kExplicitBudgetBytes) / (1024.0 * 1024.0));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Optional single-M mode (CI shards the sweep to stay inside job
  // timeouts): `kron_scaling 4096` runs only that grid.
  std::vector<std::size_t> points = {512, 1024, 2048, 4096};
  if (argc > 1) {
    points = {static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))};
  }
  for (const std::size_t m : points) run_point(m);
  return 0;
}
