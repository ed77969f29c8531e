#include "obs/analyze/reader.hpp"

#include <fstream>
#include <istream>
#include <utility>

#include "support/error.hpp"

namespace stocdr::obs::analyze {

namespace {

/// A span line must carry at least a string name and a positive id; the
/// remaining fields default to zero so schema-1 traces (no tid) still load.
bool parse_span_line(const JsonValue& doc, TraceSpan& out) {
  const JsonValue* name = doc.find("name");
  const JsonValue* id = doc.find("id");
  if (name == nullptr || name->type != JsonValue::Type::kString ||
      id == nullptr || id->type != JsonValue::Type::kNumber) {
    return false;
  }
  out.name = name->string;
  out.id = id->uint_or(0);
  if (out.id == 0) return false;
  if (const JsonValue* v = doc.find("parent")) out.parent = v->uint_or(0);
  if (const JsonValue* v = doc.find("depth")) {
    out.depth = static_cast<std::uint32_t>(v->uint_or(0));
  }
  if (const JsonValue* v = doc.find("tid")) {
    out.tid = static_cast<std::uint32_t>(v->uint_or(0));
  }
  if (const JsonValue* v = doc.find("pid")) {
    out.pid = static_cast<std::uint32_t>(v->uint_or(0));
  }
  if (const JsonValue* v = doc.find("ts_ns")) out.ts_ns = v->uint_or(0);
  if (const JsonValue* v = doc.find("dur_ns")) out.dur_ns = v->uint_or(0);
  if (const JsonValue* attrs = doc.find("attrs");
      attrs != nullptr && attrs->is_object()) {
    out.attrs = attrs->object;
  }
  return true;
}

/// An event line carries a string "event" kind (obs/sink.hpp's
/// event_to_jsonl); everything else is optional.
bool parse_event_line(const JsonValue& doc, TraceEvent& out) {
  const JsonValue* kind = doc.find("event");
  if (kind == nullptr || kind->type != JsonValue::Type::kString) return false;
  out.kind = kind->string;
  if (const JsonValue* v = doc.find("severity")) {
    out.severity = std::string(v->string_or(""));
  }
  if (const JsonValue* v = doc.find("ts_ns")) out.ts_ns = v->uint_or(0);
  if (const JsonValue* v = doc.find("pid")) {
    out.pid = static_cast<std::uint32_t>(v->uint_or(0));
  }
  if (const JsonValue* v = doc.find("span_id")) out.span_id = v->uint_or(0);
  if (const JsonValue* attrs = doc.find("attrs");
      attrs != nullptr && attrs->is_object()) {
    out.attrs = attrs->object;
  }
  return true;
}

}  // namespace

TraceFile read_trace(std::istream& in) {
  TraceFile trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++trace.total_lines;
    std::optional<JsonValue> doc = parse_json(line);
    if (!doc || !doc->is_object()) {
      ++trace.skipped_lines;
      continue;
    }
    if (const JsonValue* manifest = doc->find("manifest");
        manifest != nullptr && manifest->is_object()) {
      trace.manifest = *manifest;
      trace.has_manifest = true;
      continue;
    }
    // Crash marker written by the fatal-signal dump path ahead of the ring.
    if (const JsonValue* crash = doc->find("crash");
        crash != nullptr && crash->is_object()) {
      if (const JsonValue* sig = crash->find("signal")) {
        trace.crash_signal = static_cast<int>(sig->uint_or(0));
      }
      continue;
    }
    TraceSpan span;
    TraceEvent event;
    if (parse_span_line(*doc, span)) {
      trace.spans.push_back(std::move(span));
    } else if (parse_event_line(*doc, event)) {
      trace.events.push_back(std::move(event));
    } else {
      ++trace.skipped_lines;
    }
  }
  return trace;
}

TraceFile read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw IoError("cannot open trace file: " + path);
  }
  return read_trace(in);
}

std::optional<std::string> empty_trace_reason(const TraceFile& trace) {
  if (!trace.spans.empty()) return std::nullopt;
  if (trace.total_lines == 0) {
    return "trace is empty (no lines) — was tracing enabled? "
           "(STOCDR_TRACE_FILE / STOCDR_TRACE_RING)";
  }
  if (trace.skipped_lines == trace.total_lines) {
    return "trace has no spans: all " + std::to_string(trace.total_lines) +
           " line(s) are malformed — is this a JSONL trace?";
  }
  return "trace has no spans (" + std::to_string(trace.total_lines) +
         " line(s): manifest, marker and event lines only)";
}

}  // namespace stocdr::obs::analyze
