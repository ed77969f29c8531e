// stocdr-obsctl — the consumption half of the observability stack.
//
// Commands:
//   summarize  <trace.jsonl>... [--json]     per-name cost table (or JSON);
//                                            multiple files / globs are
//                                            merged into one cross-process
//                                            trace (fleet runs)
//   flame      <trace.jsonl>... [-o out.folded]
//                                            folded stacks (flamegraph.pl,
//                                            speedscope)
//   chrome     <trace.jsonl>... [-o out.json]
//                                            Chrome trace_event JSON
//                                            (Perfetto, chrome://tracing);
//                                            merged traces gain flow arrows
//                                            between spawner and worker
//   bench-diff <old.json> <new.json> [--threshold P%] [--min-seconds S]
//              [--instr-threshold P%]        BENCH artifact regression gate
//   perf       <BENCH.json>                  per-span perf-counter report
//                                            from a STOCDR_PERF=1 artifact
//   mem        <BENCH.json>                  per-span allocation / component
//                                            footprint report (and predicted
//                                            vs measured capacity drift)
//                                            from a STOCDR_MEM=1 artifact
//   roofline   <BENCH.json> [--peak-gbps X]  per-kernel arithmetic-intensity
//                                            / achieved-bandwidth report
//   health     <metrics.om>                  numerical-health verdict from a
//                                            live OpenMetrics snapshot
//   watch      <metrics.om> [--interval MS] [--count N]
//                                            poll a live exporter file and
//                                            print heartbeat/staleness
//   fleet      <metrics.om>... [--stale-seconds S]
//                                            aggregate N workers' exporter
//                                            snapshots into one dashboard
//                                            (exact histogram merge) with
//                                            per-worker staleness
//   events     <trace.jsonl>... [--kind K]   pretty-print the event records
//                                            of one or more traces, merged
//                                            and ordered by wall time; exits
//                                            1 when any alarm-severity
//                                            record is shown
//   journal    <sweep.jsonl>                 inspect a resumable sweep
//                                            journal (read-only: header,
//                                            completed points, damage,
//                                            v2 throughput/ETA ledger)
//   checkpoint <file>                        validate and describe a durable
//                                            solver checkpoint
//
// Exit codes: 0 ok / no regression, 1 bench-diff found a regression,
// health found an alarm, events saw an alarm record, or checkpoint failed
// validation, 2 usage or I/O error, 3 input exists but holds no data for
// the command (empty / malformed-only / marker-only trace — for multi-file
// commands only when NO file yields data — a BENCH artifact without a perf
// or mem section, a fleet with no complete snapshot, traces with no
// matching event records, or a journal with no completed points —
// diagnostic on stderr).
// Malformed trace lines are skipped and counted, never fatal.
#include <glob.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze/analyze.hpp"
#include "obs/analyze/benchdiff.hpp"
#include "obs/analyze/json_parse.hpp"
#include "obs/analyze/reader.hpp"
#include "obs/live/openmetrics.hpp"
#include "obs/metrics.hpp"
#include "robust/checkpoint/checkpoint.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "support/timer.hpp"

namespace {

using namespace stocdr;
using namespace stocdr::obs::analyze;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: stocdr-obsctl <command> [args]\n"
               "  summarize  <trace.jsonl>... [--json]\n"
               "  flame      <trace.jsonl>... [-o out.folded]\n"
               "  chrome     <trace.jsonl>... [-o out.json]\n"
               "  bench-diff <old.json> <new.json> [--threshold P%%]"
               " [--min-seconds S]\n"
               "             [--instr-threshold P%%]\n"
               "  perf       <BENCH.json>\n"
               "  mem        <BENCH.json>\n"
               "  roofline   <BENCH.json> [--peak-gbps X]\n"
               "  health     <metrics.om>\n"
               "  watch      <metrics.om> [--interval MS] [--count N]\n"
               "  fleet      <metrics.om>... [--stale-seconds S]\n"
               "  events     <trace.jsonl>... [--kind K]\n"
               "  journal    <sweep.jsonl>\n"
               "  checkpoint <file>\n");
  return out == stdout ? 0 : 2;
}

/// Writes `text` to `path`, or to stdout when path is empty.
int emit(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "obsctl: cannot write %s\n", path.c_str());
    return 2;
  }
  return 0;
}

/// Expands shell-style glob patterns (a pattern matching nothing is kept
/// literally, so a plain missing path still gets its own diagnostic).
std::vector<std::string> expand_globs(
    const std::vector<std::string>& patterns) {
  std::vector<std::string> paths;
  for (const std::string& pattern : patterns) {
    ::glob_t g{};
    if (::glob(pattern.c_str(), GLOB_NOCHECK, nullptr, &g) == 0) {
      for (std::size_t i = 0; i < g.gl_pathc; ++i) {
        paths.emplace_back(g.gl_pathv[i]);
      }
    } else {
      paths.push_back(pattern);
    }
    ::globfree(&g);
  }
  return paths;
}

/// Loads one or more traces, merging multiple files (one per worker
/// process) via merge_traces.  Unreadable files are skipped with a warning
/// and malformed lines counted per file; exit code 3 when NO file is
/// readable or, with `need_spans` (summarize/flame/chrome), when none
/// yields a usable span (distinct from 2 so scripts can tell "nothing was
/// recorded" apart from usage mistakes).
std::optional<TraceFile> load_traces(const std::vector<std::string>& patterns,
                                     int& rc, bool need_spans = true) {
  const std::vector<std::string> paths = expand_globs(patterns);
  std::vector<TraceFile> files;
  for (const std::string& path : paths) {
    TraceFile trace;
    try {
      trace = read_trace_file(path);
    } catch (const IoError&) {
      std::fprintf(stderr,
                   "obsctl: no trace at %s — was tracing enabled? "
                   "(STOCDR_TRACE_FILE / STOCDR_TRACE_RING)\n",
                   path.c_str());
      continue;
    }
    if (trace.skipped_lines != 0) {
      std::fprintf(stderr, "obsctl: %s: skipped %zu malformed line(s) of %zu\n",
                   path.c_str(), trace.skipped_lines, trace.total_lines);
    }
    files.push_back(std::move(trace));
  }
  if (files.empty()) {
    rc = 3;
    return std::nullopt;
  }
  TraceFile merged = files.size() == 1 ? std::move(files.front())
                                       : merge_traces(std::move(files));
  if (std::optional<std::string> reason = empty_trace_reason(merged);
      reason && need_spans) {
    std::fprintf(stderr, "obsctl: %s\n", reason->c_str());
    rc = 3;
    return std::nullopt;
  }
  rc = 0;
  return merged;
}

std::optional<JsonValue> load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "obsctl: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::optional<JsonValue> doc = parse_json(buffer.str());
  if (!doc) {
    std::fprintf(stderr, "obsctl: %s is not valid JSON\n", path.c_str());
  }
  return doc;
}

int cmd_summarize(const std::vector<std::string>& trace_paths, bool as_json) {
  int rc = 0;
  const std::optional<TraceFile> loaded = load_traces(trace_paths, rc);
  if (!loaded) return rc;
  const TraceFile& trace = *loaded;
  if (as_json) {
    const std::string json = aggregates_to_json(aggregate_spans(trace.spans));
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (trace.has_manifest) {
    const auto field = [&trace](const char* key) {
      const JsonValue* v = trace.manifest.find(key);
      return std::string(v == nullptr ? "?" : v->string_or("?"));
    };
    std::printf("run: %s  %s  %s  [%s]\n", field("git_sha").c_str(),
                field("hostname").c_str(), field("date_utc").c_str(),
                field("build_type").c_str());
  }
  if (trace.crash_signal != 0) {
    std::printf("crash: signal %d (flight-recorder dump)\n",
                trace.crash_signal);
  }
  std::set<std::uint32_t> pids;
  for (const TraceSpan& span : trace.spans) pids.insert(span.pid);
  if (pids.size() > 1) {
    std::printf("processes: %zu\n", pids.size());
  }
  std::printf("spans: %zu\n\n", trace.spans.size());
  TextTable table({"span", "count", "total", "self", "p50", "p90", "p99",
                   "max"});
  for (const SpanAggregate& agg : aggregate_spans(trace.spans)) {
    const auto ns = [](std::uint64_t v) {
      return format_duration(static_cast<double>(v) * 1e-9);
    };
    table.add_row({agg.name, std::to_string(agg.count), ns(agg.total_ns),
                   ns(agg.self_ns), ns(agg.p50_ns), ns(agg.p90_ns),
                   ns(agg.p99_ns), ns(agg.max_ns)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_export(const std::vector<std::string>& trace_paths,
               const std::string& out_path, bool chrome) {
  int rc = 0;
  const std::optional<TraceFile> trace = load_traces(trace_paths, rc);
  if (!trace) return rc;
  return emit(
      chrome ? to_chrome_trace(*trace) : to_folded_stacks(trace->spans),
      out_path);
}

/// "--threshold 10%" or "--threshold 0.1" — both mean +10%.
bool parse_threshold(const std::string& text, double& out) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0.0) return false;
  if (*end == '%') {
    value /= 100.0;
    ++end;
  }
  if (*end != '\0') return false;
  out = value;
  return true;
}

int cmd_bench_diff(int argc, char** argv) {
  std::string old_path;
  std::string new_path;
  BenchDiffOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc || !parse_threshold(argv[++i], options.threshold)) {
        std::fprintf(stderr, "obsctl: --threshold needs a value like 10%%\n");
        return 2;
      }
    } else if (arg == "--min-seconds") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obsctl: --min-seconds needs a value\n");
        return 2;
      }
      options.min_seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--instr-threshold") {
      if (i + 1 >= argc ||
          !parse_threshold(argv[++i], options.instr_threshold)) {
        std::fprintf(stderr,
                     "obsctl: --instr-threshold needs a value like 3%%\n");
        return 2;
      }
    } else if (old_path.empty()) {
      old_path = arg;
    } else if (new_path.empty()) {
      new_path = arg;
    } else {
      return usage(stderr);
    }
  }
  if (old_path.empty() || new_path.empty()) return usage(stderr);

  const std::optional<JsonValue> old_doc = load_json_file(old_path);
  const std::optional<JsonValue> new_doc = load_json_file(new_path);
  if (!old_doc || !new_doc) return 2;

  const BenchDiffReport report =
      diff_bench_artifacts(*old_doc, *new_doc, options);
  std::printf("bench-diff %s -> %s (threshold +%.0f%%, instructions +%.0f%%)\n%s",
              old_path.c_str(), new_path.c_str(), 100.0 * options.threshold,
              100.0 * options.instr_threshold, report.render().c_str());
  if (report.regressed) {
    std::fprintf(stderr, "obsctl: REGRESSION detected\n");
    return 1;
  }
  std::printf("no regression\n");
  return 0;
}

/// Loads the `perf` section of a BENCH artifact.  A valid artifact without
/// one (STOCDR_PERF unset when the bench ran) is "no data", exit 3, with a
/// hint — distinct from the exit-2 I/O and parse errors.
const JsonValue* load_perf_section(const JsonValue& doc,
                                   const std::string& path, int& rc) {
  const JsonValue* perf = doc.find("perf");
  if (perf == nullptr || !perf->is_object()) {
    std::fprintf(stderr,
                 "obsctl: %s has no perf section — was the bench run with "
                 "STOCDR_PERF=1?\n",
                 path.c_str());
    rc = 3;
    return nullptr;
  }
  rc = 0;
  return perf;
}

std::string format_count(double v) {
  char buffer[64];
  if (v >= 1e9) {
    std::snprintf(buffer, sizeof buffer, "%.3gG", v * 1e-9);
  } else if (v >= 1e6) {
    std::snprintf(buffer, sizeof buffer, "%.3gM", v * 1e-6);
  } else if (v >= 1e3) {
    std::snprintf(buffer, sizeof buffer, "%.3gk", v * 1e-3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.4g", v);
  }
  return buffer;
}

/// A counter field of a perf aggregate, formatted; "-" when absent (masks
/// report absence explicitly — zeros are real measurements).
std::string perf_field(const JsonValue& agg, const char* key) {
  const JsonValue* v = agg.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return "-";
  return format_count(v->number);
}

std::string perf_rate(const JsonValue& agg, const char* key) {
  const JsonValue* v = agg.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return "-";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f", v->number);
  return buffer;
}

void print_perf_header(const JsonValue& perf) {
  const JsonValue* source = perf.find("source");
  const JsonValue* available = perf.find("available");
  std::printf("source: %s  hardware counters: %s\n",
              source == nullptr
                  ? "?"
                  : std::string(source->string_or("?")).c_str(),
              available != nullptr && available->boolean ? "available"
                                                         : "ABSENT");
}

void add_perf_row(TextTable& table, const std::string& name,
                  const JsonValue& agg) {
  const JsonValue* wall = agg.find("wall_seconds");
  table.add_row(
      {name, perf_field(agg, "regions"),
       wall == nullptr ? "-" : format_duration(wall->number_or(0.0)),
       perf_field(agg, "instructions"), perf_field(agg, "cycles"),
       perf_rate(agg, "ipc"), perf_rate(agg, "cache_miss_rate"),
       perf_field(agg, "task_clock_ns")});
}

int cmd_perf(const std::string& path) {
  const std::optional<JsonValue> doc = load_json_file(path);
  if (!doc) return 2;
  int rc = 0;
  const JsonValue* perf = load_perf_section(*doc, path, rc);
  if (perf == nullptr) return rc;
  print_perf_header(*perf);
  TextTable table({"span", "regions", "wall", "instr", "cycles", "ipc",
                   "miss-rate", "task-clk-ns"});
  if (const JsonValue* total = perf->find("total"); total != nullptr) {
    add_perf_row(table, "(total)", *total);
  }
  if (const JsonValue* spans = perf->find("spans");
      spans != nullptr && spans->is_object()) {
    for (const auto& [name, agg] : spans->object) {
      add_perf_row(table, name, agg);
    }
  }
  std::printf("%s", table.render().c_str());
  if (const JsonValue* available = perf->find("available");
      available != nullptr && !available->boolean) {
    std::printf(
        "hardware counters were unavailable; see docs/OBSERVABILITY.md "
        "(kernel.perf_event_paranoid, container PMU access)\n");
  }
  return 0;
}

std::string format_bytes(double v) {
  char buffer[64];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f GiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f MiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buffer, sizeof buffer, "%.1f KiB", v / 1024.0);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.0f B", v);
  }
  return buffer;
}

/// A byte field of a mem aggregate, formatted; "-" when absent.
std::string mem_bytes_field(const JsonValue& agg, const char* key) {
  const JsonValue* v = agg.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return "-";
  return format_bytes(v->number);
}

int cmd_mem(const std::string& path) {
  const std::optional<JsonValue> doc = load_json_file(path);
  if (!doc) return 2;
  const JsonValue* mem = doc->find("mem");
  if (mem == nullptr || !mem->is_object()) {
    std::fprintf(stderr,
                 "obsctl: %s has no mem section — was the bench run with "
                 "STOCDR_MEM=1?\n",
                 path.c_str());
    return 3;
  }
  const JsonValue* available = mem->find("available");
  std::printf("byte tracking: %s\n",
              available != nullptr && available->boolean
                  ? "exact (malloc_usable_size)"
                  : "counts only (usable-size probe ABSENT)");

  const auto num = [&mem](const char* key) {
    const JsonValue* v = mem->find(key);
    return v == nullptr ? std::numeric_limits<double>::quiet_NaN()
                        : v->number_or(std::numeric_limits<double>::quiet_NaN());
  };
  const double peak = num("peak_live_bytes");
  const double predicted = num("predicted_peak_bytes");
  std::printf("peak live: %s   allocated: %s   freed: %s\n",
              format_bytes(peak).c_str(),
              format_bytes(num("total_allocated_bytes")).c_str(),
              format_bytes(num("total_freed_bytes")).c_str());
  if (!std::isnan(predicted)) {
    const double drift = num("prediction_drift");
    std::printf("capacity model: predicted %s, measured %s (drift %+.1f%%)\n",
                format_bytes(predicted).c_str(), format_bytes(peak).c_str(),
                std::isnan(drift) ? 0.0 : 100.0 * drift);
  }
  if (const double bps = num("bytes_per_state"); !std::isnan(bps)) {
    std::printf("bytes per state: %.1f\n", bps);
  }
  std::printf("\n");

  TextTable spans({"span", "regions", "wall", "allocated", "freed",
                   "allocs", "peak-live"});
  if (const JsonValue* total = mem->find("total"); total != nullptr) {
    const JsonValue* wall = total->find("wall_seconds");
    spans.add_row({"(total)", perf_field(*total, "regions"),
                   wall == nullptr ? "-"
                                   : format_duration(wall->number_or(0.0)),
                   mem_bytes_field(*total, "allocated_bytes"),
                   mem_bytes_field(*total, "freed_bytes"),
                   perf_field(*total, "alloc_count"),
                   mem_bytes_field(*total, "peak_live_bytes")});
  }
  if (const JsonValue* span_map = mem->find("spans");
      span_map != nullptr && span_map->is_object()) {
    for (const auto& [name, agg] : span_map->object) {
      const JsonValue* wall = agg.find("wall_seconds");
      spans.add_row({name, perf_field(agg, "regions"),
                     wall == nullptr ? "-"
                                     : format_duration(wall->number_or(0.0)),
                     mem_bytes_field(agg, "allocated_bytes"),
                     mem_bytes_field(agg, "freed_bytes"),
                     perf_field(agg, "alloc_count"),
                     mem_bytes_field(agg, "peak_live_bytes")});
    }
  }
  std::printf("%s", spans.render().c_str());

  if (const JsonValue* components = mem->find("components");
      components != nullptr && components->is_object() &&
      !components->object.empty()) {
    std::printf("\n");
    TextTable owners({"component", "bytes", "share of peak"});
    for (const auto& [tag, bytes] : components->object) {
      const double b = bytes.number_or(0.0);
      char share[32];
      std::snprintf(share, sizeof share, "%.1f%%",
                    peak > 0.0 ? 100.0 * b / peak : 0.0);
      owners.add_row({tag, format_bytes(b), share});
    }
    std::printf("%s", owners.render().c_str());
  }
  return 0;
}

int cmd_roofline(int argc, char** argv) {
  std::string path;
  double peak_gbps = 0.0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--peak-gbps") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obsctl: --peak-gbps needs a value\n");
        return 2;
      }
      peak_gbps = std::strtod(argv[++i], nullptr);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(stderr);
    }
  }
  if (path.empty()) return usage(stderr);
  const std::optional<JsonValue> doc = load_json_file(path);
  if (!doc) return 2;
  int rc = 0;
  const JsonValue* perf = load_perf_section(*doc, path, rc);
  if (perf == nullptr) return rc;
  const JsonValue* kernels = perf->find("kernels");
  if (kernels == nullptr || !kernels->is_object() ||
      kernels->object.empty()) {
    std::fprintf(stderr,
                 "obsctl: %s has a perf section but no kernel roofline "
                 "data (no instrumented kernel ran)\n",
                 path.c_str());
    return 3;
  }
  print_perf_header(*perf);
  std::vector<std::string> header = {"kernel",   "calls",  "bytes",
                                     "seconds",  "flop/B", "GB/s",
                                     "Gflop/s"};
  if (peak_gbps > 0.0) header.push_back("%peak");
  TextTable table(header);
  for (const auto& [name, kernel] : kernels->object) {
    const double seconds =
        kernel.find("seconds") == nullptr
            ? 0.0
            : kernel.find("seconds")->number_or(0.0);
    std::vector<std::string> row = {
        name,
        perf_field(kernel, "calls"),
        perf_field(kernel, "bytes"),
        format_duration(seconds),
        perf_rate(kernel, "arithmetic_intensity"),
        perf_rate(kernel, "achieved_gbps"),
        perf_rate(kernel, "gflops"),
    };
    if (peak_gbps > 0.0) {
      const JsonValue* gbps = kernel.find("achieved_gbps");
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.1f%%",
                    gbps == nullptr
                        ? 0.0
                        : 100.0 * gbps->number_or(0.0) / peak_gbps);
      row.push_back(buffer);
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "bytes/flops are compulsory-traffic models (see "
      "docs/OBSERVABILITY.md); GB/s = model bytes / wall seconds\n");
  return 0;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "obsctl: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Counter value from a parsed OpenMetrics doc (0 when absent — a health
/// counter that was never incremented is simply not rendered).
double om_counter(const obs::OpenMetricsDocument& doc, const char* name) {
  const double v = obs::openmetrics_value(doc, name);
  return std::isnan(v) ? 0.0 : v;
}

int cmd_health(const std::string& om_path) {
  const std::optional<std::string> text = read_text_file(om_path);
  if (!text) return 2;
  const obs::OpenMetricsDocument doc = obs::parse_openmetrics(*text);
  if (!doc.complete) {
    std::fprintf(stderr,
                 "obsctl: %s is not a complete OpenMetrics snapshot "
                 "(no \"# EOF\" terminator)\n",
                 om_path.c_str());
    return 2;
  }

  const double heartbeat = om_counter(doc, "stocdr_export_heartbeat");
  const double rho_count = om_counter(doc, "stocdr_mg_level_rho_count");
  const double rho_p90 =
      obs::openmetrics_value(doc, "stocdr_mg_level_rho", "quantile=\"0.9\"");
  const double mass_audits = om_counter(doc, "stocdr_health_mass_audits_total");
  const double mass_alarms = om_counter(doc, "stocdr_health_mass_alarms_total");
  const double nonneg_audits =
      om_counter(doc, "stocdr_health_nonneg_audits_total");
  const double negativity = om_counter(doc, "stocdr_health_negativity_total");
  const double drift =
      obs::openmetrics_value(doc, "stocdr_health_stochasticity_drift");
  const double tail_digits =
      obs::openmetrics_value(doc, "stocdr_health_tail_digits");

  TextTable table({"monitor", "value", "note"});
  const auto num = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", v);
    return std::string(buffer);
  };
  table.add_row({"heartbeat", num(heartbeat),
                 heartbeat > 0.0 ? "exporter alive" : "no exporter"});
  table.add_row({"mg.level.rho p90",
                 std::isnan(rho_p90) ? "-" : num(rho_p90),
                 num(rho_count) + " estimate(s)"});
  table.add_row({"mass audits", num(mass_audits),
                 num(mass_alarms) + " alarm(s)"});
  table.add_row({"nonneg audits", num(nonneg_audits),
                 num(negativity) + " negative entr(y/ies)"});
  table.add_row({"stochasticity drift",
                 std::isnan(drift) ? "-" : num(drift), "coarse |colsum-1|"});
  table.add_row({"tail digits", std::isnan(tail_digits) ? "-" : num(tail_digits),
                 "trustworthy BER digits"});
  std::printf("%s", table.render().c_str());

  if (mass_alarms > 0.0 || negativity > 0.0) {
    std::fprintf(stderr,
                 "obsctl: HEALTH ALARM — %.0f mass alarm(s), %.0f negative "
                 "entr(y/ies)\n",
                 mass_alarms, negativity);
    return 1;
  }
  std::printf("health: ok\n");
  return 0;
}

int cmd_watch(int argc, char** argv) {
  std::string om_path;
  long interval_ms = 1000;
  long count = 0;  // 0 = until interrupted
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      interval_ms = std::strtol(argv[++i], nullptr, 10);
      if (interval_ms < 1) interval_ms = 1;
    } else if (arg == "--count" && i + 1 < argc) {
      count = std::strtol(argv[++i], nullptr, 10);
    } else if (om_path.empty()) {
      om_path = arg;
    } else {
      return usage(stderr);
    }
  }
  if (om_path.empty()) return usage(stderr);

  double last_heartbeat = std::numeric_limits<double>::quiet_NaN();
  for (long tick = 0; count == 0 || tick < count; ++tick) {
    if (tick != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::ifstream in(om_path, std::ios::binary);
    if (!in.good()) {
      std::printf("[watch] %s: waiting for exporter (file missing)\n",
                  om_path.c_str());
      std::fflush(stdout);
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const obs::OpenMetricsDocument doc =
        obs::parse_openmetrics(buffer.str());
    const double heartbeat = om_counter(doc, "stocdr_export_heartbeat");
    const char* note = "";
    if (!doc.complete) {
      note = "  (incomplete snapshot)";
    } else if (heartbeat == last_heartbeat) {
      note = "  (stale: heartbeat unchanged)";
    }
    std::printf("[watch] heartbeat=%.0f  samples=%zu%s\n", heartbeat,
                doc.samples.size(), note);
    std::fflush(stdout);
    last_heartbeat = heartbeat;
  }
  return 0;
}

/// Seconds since `path` was last modified; NaN when unknowable.
double file_age_seconds(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::difftime(std::time(nullptr), st.st_mtime);
}

/// Aggregates N workers' OpenMetrics snapshots into one merged dashboard.
/// Counters add, gauges take the last file's value, histograms merge their
/// raw bucket state exactly (see Histogram::merge) — the merged quantile
/// estimates equal what one histogram observing every worker's samples
/// would report.  Incomplete or unreadable snapshots are reported per
/// worker and excluded from the merge; exit 3 when none merged.
int cmd_fleet(int argc, char** argv) {
  std::vector<std::string> patterns;
  double stale_seconds = 300.0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stale-seconds") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obsctl: --stale-seconds needs a value\n");
        return 2;
      }
      stale_seconds = std::strtod(argv[++i], nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(stderr);
    } else {
      patterns.push_back(arg);
    }
  }
  if (patterns.empty()) return usage(stderr);

  const std::vector<std::string> paths = expand_globs(patterns);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::size_t workers = 0;
  TextTable status({"worker", "pid", "heartbeat", "age", "status"});
  for (const std::string& path : paths) {
    const double age = file_age_seconds(path);
    const std::string age_text =
        std::isnan(age) ? "-" : format_duration(age < 0.0 ? 0.0 : age);
    const std::optional<std::string> text = [&]() -> std::optional<std::string> {
      std::ifstream in(path, std::ios::binary);
      if (!in.good()) return std::nullopt;
      std::ostringstream buffer;
      buffer << in.rdbuf();
      return std::move(buffer).str();
    }();
    if (!text) {
      status.add_row({path, "-", "-", age_text, "unreadable"});
      continue;
    }
    const obs::OpenMetricsDocument doc = obs::parse_openmetrics(*text);
    const double heartbeat = om_counter(doc, "stocdr_export_heartbeat");
    const double pid = obs::openmetrics_value(doc, "stocdr_process_pid");
    const auto num = [](double v) {
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.0f", v);
      return std::string(buffer);
    };
    if (!doc.complete) {
      status.add_row({path, std::isnan(pid) ? "-" : num(pid), num(heartbeat),
                      age_text, "incomplete"});
      continue;
    }
    registry.merge_snapshot(obs::openmetrics_to_samples(doc));
    ++workers;
    status.add_row({path, std::isnan(pid) ? "-" : num(pid), num(heartbeat),
                    age_text,
                    !std::isnan(age) && age > stale_seconds ? "STALE" : "ok"});
  }
  std::printf("%s", status.render().c_str());
  std::printf("workers: %zu\n", workers);
  if (workers == 0) {
    std::fprintf(stderr,
                 "obsctl: no complete OpenMetrics snapshot among %zu "
                 "path(s)\n",
                 paths.size());
    return 3;
  }

  std::printf("\n");
  TextTable merged({"metric", "kind", "value", "count", "mean", "p50", "p90",
                    "p99", "min", "max"});
  const auto num = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", v);
    return std::string(buffer);
  };
  for (const obs::MetricSample& s : registry.snapshot()) {
    switch (s.kind) {
      case obs::MetricSample::Kind::kCounter:
        merged.add_row({s.name, "counter", num(s.value), "-", "-", "-", "-",
                        "-", "-", "-"});
        break;
      case obs::MetricSample::Kind::kGauge:
        merged.add_row({s.name, "gauge", num(s.value), "-", "-", "-", "-",
                        "-", "-", "-"});
        break;
      case obs::MetricSample::Kind::kHistogram:
        merged.add_row({s.name, "histogram", "-", std::to_string(s.count),
                        num(s.value), num(s.p50), num(s.p90), num(s.p99),
                        num(s.min), num(s.max)});
        break;
    }
  }
  std::printf("%s", merged.render().c_str());
  return 0;
}

/// Pretty-prints the event records of one or more traces, merged and
/// ordered by wall time.  Exit 1 when any displayed record has alarm
/// severity — the CI shape for "the sweep finished but a health monitor
/// fired".
int cmd_events(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string kind_filter;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kind") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obsctl: --kind needs a value\n");
        return 2;
      }
      kind_filter = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(stderr);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(stderr);

  int rc = 0;
  const std::optional<TraceFile> trace =
      load_traces(paths, rc, /*need_spans=*/false);
  if (!trace) return rc;
  std::vector<const TraceEvent*> rows;
  for (const TraceEvent& event : trace->events) {
    if (kind_filter.empty() || event.kind == kind_filter) {
      rows.push_back(&event);
    }
  }
  if (rows.empty()) {
    std::fprintf(stderr, "obsctl: no%s event records in %zu trace file(s)\n",
                 kind_filter.empty() ? ""
                                     : (" \"" + kind_filter + "\"").c_str(),
                 paths.size());
    return 3;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts_ns < b->ts_ns;
                   });

  const std::uint64_t t0 = rows.front()->ts_ns;
  std::size_t alarms = 0;
  TextTable table({"t", "severity", "pid", "event", "attrs"});
  for (const TraceEvent* event : rows) {
    if (event->severity == "alarm") ++alarms;
    std::string attrs;
    for (const auto& [key, value] : event->attrs) {
      if (!attrs.empty()) attrs += "  ";
      attrs += key + '=' +
               (value.type == JsonValue::Type::kString ? value.string
                                                       : to_json_text(value));
    }
    char rel[64];
    std::snprintf(rel, sizeof rel, "+%.3fs",
                  static_cast<double>(event->ts_ns - t0) * 1e-9);
    table.add_row({rel, event->severity.empty() ? "?" : event->severity,
                   std::to_string(event->pid), event->kind, attrs});
  }
  std::printf("%s", table.render().c_str());
  std::printf("events: %zu  alarms: %zu\n", rows.size(), alarms);
  if (alarms > 0) {
    std::fprintf(stderr, "obsctl: ALARM — %zu alarm-severity event(s)\n",
                 alarms);
    return 1;
  }
  return 0;
}

/// Read-only sweep-journal inspection.  Deliberately does NOT go through
/// robust::jnl::SweepJournal — that class repairs (truncates) torn tails on
/// open, and an inspector must never modify the file it describes.
int cmd_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "obsctl: no journal at %s\n", path.c_str());
    return 3;
  }
  std::string config_hash = "?";
  std::string version = "?";
  std::vector<std::string> points;
  std::size_t points_total = 0;
  double wall_total = 0.0;
  std::size_t wall_measured = 0;
  std::size_t malformed = 0;
  bool header_seen = false;
  bool torn_tail = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const bool terminated = !in.eof();  // getline at EOF = no trailing '\n'
    const std::optional<JsonValue> parsed = parse_json(line);
    bool good = parsed.has_value() && parsed->is_object() && terminated;
    if (good && line_no == 1) {
      const JsonValue* kind = parsed->find("journal");
      if (kind != nullptr && kind->string_or("") == "stocdr-sweep") {
        header_seen = true;
        if (const JsonValue* h = parsed->find("config_hash")) {
          config_hash = h->string_or("?");
        }
        if (const JsonValue* v = parsed->find("version")) {
          version = std::to_string(v->uint_or(0));
        }
        if (const JsonValue* total = parsed->find("points_total")) {
          points_total = static_cast<std::size_t>(total->uint_or(0));
        }
      } else {
        good = false;
      }
    } else if (good) {
      const JsonValue* point = parsed->find("point");
      if (point != nullptr && point->type == JsonValue::Type::kString &&
          parsed->find("result") != nullptr) {
        std::string entry = point->string;
        // v2 ledger: per-point wall/iterations/residual ride next to the
        // result (absent on v1 journals — the listing then stays bare).
        if (const JsonValue* stats = parsed->find("stats");
            stats != nullptr && stats->is_object()) {
          const JsonValue* wall = stats->find("wall_seconds");
          if (wall != nullptr) {
            const double seconds = wall->number_or(0.0);
            wall_total += seconds;
            ++wall_measured;
            entry += "  (" + format_duration(seconds);
            if (const JsonValue* iter = stats->find("iterations");
                iter != nullptr && iter->uint_or(0) > 0) {
              entry += ", " + std::to_string(iter->uint_or(0)) + " iter";
            }
            if (const JsonValue* res = stats->find("residual");
                res != nullptr && res->number_or(0.0) > 0.0) {
              entry += ", residual " + sci(res->number_or(0.0), 2);
            }
            entry += ")";
          }
        }
        points.push_back(std::move(entry));
      } else {
        good = false;
      }
    }
    if (!good) {
      if (!terminated) {
        torn_tail = true;  // exactly what a mid-append crash leaves behind
      } else {
        ++malformed;
      }
    }
  }

  std::printf("journal: %s\n", path.c_str());
  std::printf("  header:      %s (version %s, config hash %s)\n",
              header_seen ? "ok" : "missing/foreign", version.c_str(),
              config_hash.c_str());
  if (points_total > 0) {
    std::printf("  progress:    %zu/%zu point(s)\n", points.size(),
                points_total);
  }
  std::printf("  completed:   %zu point(s)\n", points.size());
  for (const std::string& key : points) {
    std::printf("    - %s\n", key.c_str());
  }
  if (wall_measured > 0) {
    const double mean = wall_total / static_cast<double>(wall_measured);
    std::printf("  wall:        %s total, %s/point (%zu measured)\n",
                format_duration(wall_total).c_str(),
                format_duration(mean).c_str(), wall_measured);
    if (points_total > points.size()) {
      const std::size_t remaining = points_total - points.size();
      std::printf("  eta:         %s (%zu remaining x mean)\n",
                  format_duration(mean * static_cast<double>(remaining))
                      .c_str(),
                  remaining);
    }
  }
  if (torn_tail) {
    std::printf("  torn tail:   yes (will be truncated on next resume)\n");
  }
  if (malformed > 0) {
    std::printf("  malformed:   %zu line(s) (skipped on resume)\n", malformed);
  }
  if (!header_seen || points.empty()) {
    std::fprintf(stderr, "obsctl: journal holds no replayable points\n");
    return 3;
  }
  return 0;
}

/// Validates and describes one durable checkpoint file.
int cmd_checkpoint(const std::string& path) {
  const robust::ckpt::LoadResult result =
      robust::ckpt::load_checkpoint(path, /*expected_hash=*/"",
                                    /*expected_size=*/0);
  if (result.status == robust::ckpt::LoadStatus::kMissing) {
    std::fprintf(stderr, "obsctl: no checkpoint at %s\n", path.c_str());
    return 3;
  }
  std::printf("checkpoint: %s\n", path.c_str());
  std::printf("  status:      %s\n", robust::ckpt::to_string(result.status));
  if (result.status != robust::ckpt::LoadStatus::kOk) {
    std::printf("  detail:      %s\n", result.detail.c_str());
    std::fprintf(stderr, "obsctl: checkpoint failed validation (%s)\n",
                 robust::ckpt::to_string(result.status));
    return 1;
  }
  std::printf("  config hash: %s\n",
              result.checkpoint.config_hash.empty()
                  ? "(none)"
                  : result.checkpoint.config_hash.c_str());
  std::printf("  iteration:   %llu\n",
              static_cast<unsigned long long>(result.checkpoint.iteration));
  std::printf("  residual:    %s\n", sci(result.checkpoint.residual, 3).c_str());
  std::printf("  states:      %zu\n", result.checkpoint.iterate.size());
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(stdout);
  }
  if (command == "bench-diff") return cmd_bench_diff(argc - 2, argv + 2);
  if (command == "roofline") return cmd_roofline(argc - 2, argv + 2);
  if (command == "watch") return cmd_watch(argc - 2, argv + 2);
  if (command == "fleet") return cmd_fleet(argc - 2, argv + 2);
  if (command == "events") return cmd_events(argc - 2, argv + 2);
  if (command == "health" || command == "perf" || command == "mem" ||
      command == "journal" || command == "checkpoint") {
    if (argc < 3) return usage(stderr);
    if (command == "health") return cmd_health(argv[2]);
    if (command == "perf") return cmd_perf(argv[2]);
    if (command == "mem") return cmd_mem(argv[2]);
    if (command == "journal") return cmd_journal(argv[2]);
    return cmd_checkpoint(argv[2]);
  }

  if (command != "summarize" && command != "flame" && command != "chrome") {
    std::fprintf(stderr, "obsctl: unknown command \"%s\"\n", command.c_str());
    return usage(stderr);
  }
  if (argc < 3) return usage(stderr);
  std::vector<std::string> trace_paths;
  std::string out_path;
  bool as_json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc &&
        command != "summarize") {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 &&
               command == "summarize") {
      as_json = true;
    } else if (argv[i][0] == '-') {
      return usage(stderr);
    } else {
      trace_paths.emplace_back(argv[i]);
    }
  }
  if (trace_paths.empty()) return usage(stderr);
  if (command == "summarize") return cmd_summarize(trace_paths, as_json);
  return cmd_export(trace_paths, out_path, command == "chrome");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obsctl: %s\n", e.what());
    return 2;
  }
}
