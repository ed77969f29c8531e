// The benchmark's own span recorder.
//
// Spans wrap the library's public calls from the outside (the library's
// in-program tracing stays off).  They are kept in memory — name, start,
// end, parent span and point id — and written out as JSONL when the run
// ends.  A layer's self time is its span's duration minus the part covered
// by its child spans.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  long parent = -1;  ///< index into the recorder's spans, -1 for roots
  long point = -1;   ///< point index within the pass
  long pass = -1;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Spans are recorded only while enabled (the traced passes).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void set_context(long pass, long point) {
    pass_ = pass;
    point_ = point;
  }

  long open(const char* name) {
    if (!enabled_) return -1;
    SpanRecord r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.point = point_;
    r.pass = pass_;
    r.start = Clock::now();
    spans_.push_back(r);
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(long id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  /// Self seconds per span name, summed over the spans of `pass`.
  [[nodiscard]] std::map<std::string, double> self_seconds(long pass) const {
    const std::vector<double> child = child_seconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].pass != pass) continue;
      out[spans_[i].name] +=
          seconds_between(spans_[i].start, spans_[i].end) - child[i];
    }
    return out;
  }

  /// Writes every span as one JSON object per line; false if the file
  /// cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> child = child_seconds();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const double dur = seconds_between(s.start, s.end);
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%ld,\"pass\":%ld,"
                   "\"point\":%ld,\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"self_s\":%.9f}\n",
                   i, s.name, s.parent, s.pass, s.point,
                   seconds_between(epoch_, s.start),
                   seconds_between(epoch_, s.end), dur - child[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  /// Per span, the seconds covered by its direct children.
  [[nodiscard]] std::vector<double> child_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    return child;
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  long pass_ = -1;
  long point_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<long> stack_;
};

/// RAII span; a no-op while the recorder is disabled.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.open(name)) {}
  ~Span() { recorder_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  long id_;
};

}  // namespace perfbench
