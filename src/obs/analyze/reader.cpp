#include "obs/analyze/reader.hpp"

#include <fstream>
#include <istream>
#include <map>
#include <set>
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
  if (const JsonValue* v = doc.find("remote_parent_pid")) {
    out.remote_parent_pid = static_cast<std::uint32_t>(v->uint_or(0));
  }
  if (const JsonValue* v = doc.find("remote_parent_id")) {
    out.remote_parent_id = v->uint_or(0);
  }
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
  if (const JsonValue* v = doc.find("trace_id")) {
    out.trace_id = std::string(v->string_or(""));
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

TraceFile merge_traces(std::vector<TraceFile> files) {
  TraceFile merged;
  // (pid, original id) -> renumbered id, for remote-parent stitching.  The
  // pid key matters: span ids restart at 1 in every process.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> by_origin;
  std::uint64_t base = 0;
  for (TraceFile& file : files) {
    if (file.has_manifest && !merged.has_manifest) {
      merged.manifest = std::move(file.manifest);
      merged.has_manifest = true;
    }
    if (merged.crash_signal == 0) merged.crash_signal = file.crash_signal;
    merged.total_lines += file.total_lines;
    merged.skipped_lines += file.skipped_lines;
    std::uint64_t max_id = 0;
    for (TraceSpan& span : file.spans) {
      if (span.id > max_id) max_id = span.id;
      const std::uint64_t new_id = base + span.id;
      by_origin.emplace(std::make_pair(span.pid, span.id), new_id);
      span.id = new_id;
      if (span.parent != 0) span.parent += base;
      merged.spans.push_back(std::move(span));
    }
    for (TraceEvent& event : file.events) {
      if (event.span_id != 0) event.span_id += base;
      merged.events.push_back(std::move(event));
    }
    base += max_id;
  }
  // Stitch worker roots under the spawning span of their parent process.
  // Index the merged vector first: the parent span may live in a file read
  // after the child's (shard files are merged in shard order, not time
  // order).
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < merged.spans.size(); ++i) {
    index_of.emplace(merged.spans[i].id, i);
  }
  std::set<std::uint32_t> shifted_pids;
  for (std::size_t i = 0; i < merged.spans.size(); ++i) {
    TraceSpan& span = merged.spans[i];
    if (span.parent != 0 || span.remote_parent_id == 0) continue;
    const auto mapped = by_origin.find(
        std::make_pair(span.remote_parent_pid, span.remote_parent_id));
    if (mapped == by_origin.end()) continue;  // parent's trace not supplied
    const auto parent_it = index_of.find(mapped->second);
    if (parent_it == index_of.end()) continue;
    const std::size_t parent_index = parent_it->second;
    span.parent = mapped->second;
    const std::uint32_t parent_depth = merged.spans[parent_index].depth;
    // The whole child process subtree shifts down with its root (once per
    // pid — a worker with several thread roots shares one shift).
    if (parent_depth + 1 > span.depth &&
        shifted_pids.insert(span.pid).second) {
      const std::uint32_t depth_shift = parent_depth + 1 - span.depth;
      for (TraceSpan& other : merged.spans) {
        if (other.pid == span.pid) other.depth += depth_shift;
      }
    }
    merged.flows.push_back(FlowLink{parent_index, i});
  }
  return merged;
}

}  // namespace stocdr::obs::analyze
