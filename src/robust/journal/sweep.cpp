#include "robust/journal/sweep.hpp"

#include <chrono>

#include "obs/analyze/json_parse.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject/faultinject.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"

namespace stocdr::robust::jnl {

namespace {

/// Iterations/residual are conventions of this repo's deterministic point
/// JSON; a result without them just leaves the ledger fields zero.
void harvest_result_fields(const std::string& result_json, PointStats& stats) {
  const auto parsed = obs::analyze::parse_json(result_json);
  if (!parsed.has_value() || !parsed->is_object()) return;
  if (const auto* v = parsed->find("iterations")) {
    stats.iterations = v->uint_or(0);
  }
  if (const auto* v = parsed->find("residual")) {
    stats.residual = v->number_or(0.0);
  }
}

}  // namespace

SweepOutcome run_sweep(const std::string& journal_path,
                       const std::string& config_hash,
                       const std::vector<std::string>& point_keys,
                       FunctionRef<std::string(const std::string&)>
                           solve_point,
                       const std::vector<double>& predicted_costs) {
  SweepJournal journal(journal_path, config_hash, point_keys.size());
  SweepOutcome outcome;
  outcome.journal = journal.stats();
  outcome.results.reserve(point_keys.size());

  // Progress/ETA bookkeeping.  Costs are relative units (uniform when the
  // caller has no model); the calibration seconds-per-cost rate comes from
  // every point with a measured duration — this run's, or a resumed v2
  // record's.
  auto cost_of = [&](std::size_t i) {
    return predicted_costs.size() == point_keys.size() &&
                   predicted_costs[i] > 0.0
               ? predicted_costs[i]
               : 1.0;
  };
  double total_cost = 0.0;
  for (std::size_t i = 0; i < point_keys.size(); ++i) total_cost += cost_of(i);
  double done_cost = 0.0;
  double calibrated_cost = 0.0;     ///< cost of points with known seconds
  double calibrated_seconds = 0.0;  ///< their summed wall seconds

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Gauge& points_total_gauge = registry.gauge("sweep.points_total");
  obs::Gauge& points_done_gauge = registry.gauge("sweep.points_done");
  obs::Gauge& eta_gauge = registry.gauge("sweep.eta_seconds");
  obs::Histogram& point_seconds = registry.histogram("sweep.point_seconds");
  points_total_gauge.set(static_cast<double>(point_keys.size()));
  points_done_gauge.set(0.0);

  auto eta_seconds = [&]() {
    const double remaining = total_cost - done_cost;
    if (remaining <= 0.0) return 0.0;
    if (calibrated_cost <= 0.0 || calibrated_seconds <= 0.0) return 0.0;
    return remaining * (calibrated_seconds / calibrated_cost);
  };

  obs::evt::emit("sweep.start", obs::evt::Severity::kInfo,
                 {{"journal", journal_path},
                  {"points_total", std::uint64_t{point_keys.size()}},
                  {"resumed", std::uint64_t{outcome.journal.resumed}}});

  std::size_t done = 0;
  for (std::size_t i = 0; i < point_keys.size(); ++i) {
    const std::string& key = point_keys[i];
    bool replayed = false;
    double wall = 0.0;
    if (const std::string* cached = journal.result(key)) {
      outcome.results.push_back(*cached);
      ++outcome.skipped;
      replayed = true;
      if (const PointStats* stats = journal.point_stats(key)) {
        wall = stats->wall_seconds;
      }
    } else {
      if (fi::arm("sweep_point") == fi::Action::kFail) {
        throw IoError("sweep: injected failure at point " + key);
      }
      obs::PeakRssSampler rss;
      rss.begin();
      const auto start = std::chrono::steady_clock::now();
      std::string result = solve_point(key);
      PointStats stats;
      stats.valid = true;
      stats.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      stats.peak_bytes = rss.peak();
      harvest_result_fields(result, stats);
      wall = stats.wall_seconds;
      journal.append(key, result, stats);
      outcome.results.push_back(std::move(result));
      ++outcome.computed;
      point_seconds.observe(wall);
    }
    ++done;
    done_cost += cost_of(i);
    if (wall > 0.0) {
      calibrated_cost += cost_of(i);
      calibrated_seconds += wall;
    }
    // Reasserted per point, not just set once up front: a solve_point that
    // resets the process-global registry for per-case isolation (the bench
    // harness does) would otherwise zero the total while done kept counting.
    points_total_gauge.set(static_cast<double>(point_keys.size()));
    points_done_gauge.set(static_cast<double>(done));
    const double eta = eta_seconds();
    eta_gauge.set(eta);
    obs::evt::emit("sweep.progress", obs::evt::Severity::kInfo,
                   {{"point", key},
                    {"points_done", std::uint64_t{done}},
                    {"points_total", std::uint64_t{point_keys.size()}},
                    {"replayed", std::uint64_t{replayed ? 1u : 0u}},
                    {"wall_seconds", wall},
                    {"eta_seconds", eta}});
  }

  eta_gauge.set(0.0);
  obs::evt::emit("sweep.done", obs::evt::Severity::kInfo,
                 {{"journal", journal_path},
                  {"computed", std::uint64_t{outcome.computed}},
                  {"replayed", std::uint64_t{outcome.skipped}}});
  return outcome;
}

void write_sweep_artifact(const std::string& path, std::string_view bench_name,
                          std::string_view config_hash,
                          const std::vector<std::string>& point_keys,
                          const std::vector<std::string>& results) {
  STOCDR_REQUIRE(point_keys.size() == results.size(),
                 "write_sweep_artifact: one result per point required");
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "stocdr-sweep-artifact-v1");
  w.field("bench", bench_name);
  w.field("config_hash", config_hash);
  w.field("points_total", static_cast<std::uint64_t>(point_keys.size()));
  w.key("points");
  w.begin_array();
  for (std::size_t i = 0; i < point_keys.size(); ++i) {
    w.begin_object();
    w.field("key", point_keys[i]);
    w.key("result");
    w.raw_value(results[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  AtomicFileWriter writer(path);
  writer.write(std::move(w).str());
  writer.write("\n");
  writer.commit();
}

}  // namespace stocdr::robust::jnl
