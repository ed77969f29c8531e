#include "obs/sink.hpp"

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "support/error.hpp"

namespace stocdr::obs {

namespace {

/// The "attrs" object shared by span and event lines (omitted when empty).
void write_attrs(JsonWriter& w, const Attrs& attrs) {
  if (attrs.empty()) return;
  w.key("attrs");
  w.begin_object();
  for (const auto& [key, value] : attrs) {
    w.key(key);
    if (const auto* u = std::get_if<std::uint64_t>(&value)) {
      w.value(*u);
    } else if (const auto* d = std::get_if<double>(&value)) {
      w.value(*d);
    } else {
      w.value(std::get<std::string>(value));
    }
  }
  w.end_object();
}

/// " key=value" per attribute, for the console.
std::string attrs_to_text(const Attrs& attrs) {
  std::string text;
  for (const auto& [key, value] : attrs) {
    text += ' ';
    text += key;
    text += '=';
    text += attr_to_string(value);
  }
  return text;
}

}  // namespace

const char* evt::to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kAlarm: return "alarm";
  }
  return "unknown";
}

std::string attr_to_string(const AttrValue& value) {
  if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    return std::to_string(*u);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", *d);
    return buf;
  }
  return std::get<std::string>(value);
}

std::string manifest_jsonl_line() {
  JsonWriter w;
  w.begin_object();
  w.key("manifest");
  w.raw_value(manifest_to_json(current_manifest()));
  w.end_object();
  return std::move(w).str();
}

std::string span_to_jsonl(const SpanRecord& span) {
  JsonWriter w;
  w.begin_object();
  w.field("name", span.name);
  w.field("id", span.id);
  w.field("parent", span.parent_id);
  w.field("depth", std::uint64_t{span.depth});
  w.field("tid", std::uint64_t{span.tid});
  w.field("pid", std::uint64_t{span.pid});
  w.field("ts_ns", span.start_ns);
  w.field("dur_ns", span.duration_ns);
  write_attrs(w, span.attrs);
  w.end_object();
  return std::move(w).str();
}

std::string event_to_jsonl(const evt::EventRecord& event) {
  JsonWriter w;
  w.begin_object();
  w.field("event", event.kind);
  w.field("severity", evt::to_string(event.severity));
  w.field("ts_ns", event.ts_ns);
  w.field("pid", std::uint64_t{event.pid});
  w.field("span_id", event.span_id);
  write_attrs(w, event.attrs);
  w.end_object();
  return std::move(w).str();
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : writer_(path, /*carry_existing=*/true) {
  // Stamp provenance before the first span.  Appended traces accumulate one
  // manifest per sink open; readers treat each as authoritative for the
  // spans that follow it.
  const std::string line = manifest_jsonl_line();
  std::FILE* file = writer_.handle();
  std::fwrite(line.data(), 1, line.size(), file);
  std::fputc('\n', file);
  std::fflush(file);
}

JsonlFileSink::~JsonlFileSink() = default;  // AtomicFileWriter commits

void JsonlFileSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = writer_.handle();
  std::fwrite(line.data(), 1, line.size(), file);
  std::fputc('\n', file);
  std::fflush(file);
}

void JsonlFileSink::on_span(const SpanRecord& span) {
  write_line(span_to_jsonl(span));
}

void JsonlFileSink::on_event(const evt::EventRecord& event) {
  write_line(event_to_jsonl(event));
}

void ConsoleSink::on_span(const SpanRecord& span) {
  const std::string attrs = attrs_to_text(span.attrs);
  const double ms = static_cast<double>(span.duration_ns) * 1e-6;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out_, "[trace] %*s%s  %.3fms %s\n",
               static_cast<int>(2 * span.depth), "", span.name, ms,
               attrs.c_str());
}

void ConsoleSink::on_event(const evt::EventRecord& event) {
  const std::string attrs = attrs_to_text(event.attrs);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out_, "[event] %s %s %s\n", evt::to_string(event.severity),
               event.kind.c_str(), attrs.c_str());
}

void CollectingSink::on_span(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
  if (keep_records_) records_.push_back(span);
}

void CollectingSink::on_event(const evt::EventRecord& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::size_t CollectingSink::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

std::vector<SpanRecord> CollectingSink::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<evt::EventRecord> CollectingSink::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void CollectingSink::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  count_ = 0;
  records_.clear();
  events_.clear();
}

}  // namespace stocdr::obs
