#include "obs/analyze/analyze.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "obs/json.hpp"

namespace stocdr::obs::analyze {

namespace {

/// Map from span id to the span, for parent-chain walks.
std::unordered_map<std::uint64_t, const TraceSpan*> index_by_id(
    const std::vector<TraceSpan>& spans) {
  std::unordered_map<std::uint64_t, const TraceSpan*> index;
  index.reserve(spans.size());
  for (const TraceSpan& span : spans) index.emplace(span.id, &span);
  return index;
}

/// Self time per span id: duration minus the summed duration of direct
/// children, clamped at zero.
std::unordered_map<std::uint64_t, std::uint64_t> self_times(
    const std::vector<TraceSpan>& spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> children_ns;
  children_ns.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    if (span.parent != 0) children_ns[span.parent] += span.dur_ns;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> self;
  self.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    const auto it = children_ns.find(span.id);
    const std::uint64_t in_children = it == children_ns.end() ? 0 : it->second;
    self[span.id] = span.dur_ns > in_children ? span.dur_ns - in_children : 0;
  }
  return self;
}

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  auto index = static_cast<std::size_t>(pos + 0.5);
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

}  // namespace

std::vector<SpanAggregate> aggregate_spans(
    const std::vector<TraceSpan>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, std::vector<const TraceSpan*>> by_name;
  for (const TraceSpan& span : spans) by_name[span.name].push_back(&span);

  std::vector<SpanAggregate> out;
  out.reserve(by_name.size());
  for (const auto& [name, group] : by_name) {
    SpanAggregate agg;
    agg.name = name;
    agg.count = group.size();
    std::vector<std::uint64_t> durations;
    durations.reserve(group.size());
    for (const TraceSpan* span : group) {
      agg.total_ns += span->dur_ns;
      agg.self_ns += self.at(span->id);
      durations.push_back(span->dur_ns);
    }
    std::sort(durations.begin(), durations.end());
    agg.p50_ns = nearest_rank(durations, 0.50);
    agg.p90_ns = nearest_rank(durations, 0.90);
    agg.p99_ns = nearest_rank(durations, 0.99);
    agg.max_ns = durations.back();
    out.push_back(std::move(agg));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                              : a.name < b.name;
            });
  return out;
}

std::string aggregates_to_json(const std::vector<SpanAggregate>& aggregates) {
  JsonWriter w;
  w.begin_array();
  for (const SpanAggregate& agg : aggregates) {
    w.begin_object();
    w.field("name", agg.name);
    w.field("count", agg.count);
    w.field("total_ns", agg.total_ns);
    w.field("self_ns", agg.self_ns);
    w.field("p50_ns", agg.p50_ns);
    w.field("p90_ns", agg.p90_ns);
    w.field("p99_ns", agg.p99_ns);
    w.field("max_ns", agg.max_ns);
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

std::string to_folded_stacks(const std::vector<TraceSpan>& spans) {
  const auto by_id = index_by_id(spans);
  const auto self = self_times(spans);

  bool multi_thread = false;
  if (!spans.empty()) {
    for (const TraceSpan& span : spans) {
      if (span.tid != spans.front().tid) {
        multi_thread = true;
        break;
      }
    }
  }

  // Collapse identical stacks; std::map gives the sorted output order.
  std::map<std::string, std::uint64_t> weight_us;
  std::vector<const TraceSpan*> chain;
  for (const TraceSpan& span : spans) {
    const std::uint64_t us = self.at(span.id) / 1000;
    if (us == 0) continue;
    // Root-to-leaf name chain via parent pointers.  The depth field bounds
    // the walk, so a cyclic parent link in a corrupt trace cannot hang us.
    chain.clear();
    const TraceSpan* node = &span;
    for (std::uint32_t hops = 0; node != nullptr && hops <= span.depth + 1;
         ++hops) {
      chain.push_back(node);
      if (node->parent == 0) break;
      const auto it = by_id.find(node->parent);
      node = it == by_id.end() ? nullptr : it->second;
    }
    std::string stack;
    if (multi_thread) stack = "thread-" + std::to_string(span.tid);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!stack.empty()) stack += ';';
      stack += (*it)->name;
    }
    weight_us[stack] += us;
  }

  std::string out;
  for (const auto& [stack, us] : weight_us) {
    out += stack;
    out += ' ';
    out += std::to_string(us);
    out += '\n';
  }
  return out;
}

std::string to_chrome_trace(const TraceFile& trace) {
  JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  if (trace.has_manifest) {
    w.key("metadata");
    w.raw_value(to_json_text(trace.manifest));
  }
  w.key("traceEvents");
  w.begin_array();
  for (const TraceSpan& span : trace.spans) {
    w.begin_object();
    w.field("name", span.name);
    w.field("cat", "stocdr");
    w.field("ph", "X");
    w.field("ts", static_cast<double>(span.ts_ns) / 1000.0);
    w.field("dur", static_cast<double>(span.dur_ns) / 1000.0);
    // Pre-pid traces (schema <= 2) carry pid 0; show them as process 1.
    w.field("pid", std::uint64_t{span.pid == 0 ? 1u : span.pid});
    w.field("tid", std::uint64_t{span.tid});
    if (!span.attrs.empty()) {
      w.key("args");
      w.begin_object();
      for (const auto& [key, value] : span.attrs) {
        w.key(key);
        w.raw_value(to_json_text(value));
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace stocdr::obs::analyze
