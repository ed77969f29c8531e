// JSONL trace reader: turns the stream a JsonlFileSink wrote back into
// structured spans and events plus the run-provenance manifest.
//
// Robustness contract (stocdr-obsctl must never crash on a trace): a line
// that is empty is ignored; a line that is not valid JSON, not an object,
// or neither a span nor an event is *skipped and counted* — a truncated
// final line from a killed process is the expected case, not an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze/json_parse.hpp"

namespace stocdr::obs::analyze {

/// One span parsed back from a trace line (see obs/sink.hpp for the
/// emitting side).  Attribute values keep their parsed JSON form.
struct TraceSpan {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t depth = 0;
  std::uint32_t tid = 0;     ///< 0 on pre-tid traces (schema 1)
  std::uint32_t pid = 0;     ///< 0 on pre-pid traces (schema <= 2)
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, JsonValue>> attrs;
};

/// One event parsed back from a trace line (obs::evt::EventRecord on the
/// emitting side).  Only `kind` is required; absent fields stay empty/0.
struct TraceEvent {
  std::string kind;
  std::string severity;
  std::uint64_t ts_ns = 0;  ///< wall CLOCK_REALTIME ns
  std::uint32_t pid = 0;
  std::uint64_t span_id = 0;  ///< innermost open span at emission, 0 = none
  std::vector<std::pair<std::string, JsonValue>> attrs;
};

/// A fully read trace.
struct TraceFile {
  /// The first manifest line ({"manifest":{..}}) if present; later manifest
  /// lines (appended traces) replace it, so this reflects the newest run.
  JsonValue manifest;
  bool has_manifest = false;

  std::vector<TraceSpan> spans;

  /// Event lines in file order.
  std::vector<TraceEvent> events;

  /// Signal number from a {"crash":{"signal":N}} marker line (written by
  /// the fatal-signal flight-recorder dump); 0 = no crash marker.
  int crash_signal = 0;

  std::size_t total_lines = 0;    ///< non-empty lines seen
  std::size_t skipped_lines = 0;  ///< malformed / unrecognized lines
};

/// Reads a trace from a stream (one JSON object per line).
[[nodiscard]] TraceFile read_trace(std::istream& in);

/// Reads a trace file; throws stocdr::IoError if the file cannot be opened.
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

/// nullopt when the trace holds at least one span; otherwise a one-line
/// human-readable reason ("empty trace file", "no spans: ... malformed
/// line(s)", ...) the CLI surfaces with its distinct exit code.
[[nodiscard]] std::optional<std::string> empty_trace_reason(
    const TraceFile& trace);

}  // namespace stocdr::obs::analyze
