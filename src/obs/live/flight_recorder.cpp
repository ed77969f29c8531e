#include "obs/live/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "obs/mem/mem.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace stocdr::obs {

namespace {

std::atomic<FlightRecorder*> g_active{nullptr};

#if defined(__unix__) || defined(__APPLE__)
/// write(2) the whole buffer; best-effort (a failing fd during a crash dump
/// has no recovery path).
void write_fd(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) return;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}
#endif

}  // namespace

std::size_t parse_ring_capacity(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(spec, &end, 10);
  if (end == spec || value == 0) return 0;
  return std::clamp<std::size_t>(static_cast<std::size_t>(value),
                                 FlightRecorder::kMinCapacity,
                                 FlightRecorder::kMaxCapacity);
}

FlightRecorder::FlightRecorder(std::size_t capacity, TraceSink* downstream)
    : downstream_(downstream),
      manifest_line_(manifest_jsonl_line()),
      slots_(std::clamp(capacity, kMinCapacity, kMaxCapacity)) {
  // The ring's slot array is a fixed multi-megabyte owner at large
  // capacities — tag it so mem telemetry attributes it.
  mem::report_component("obs.trace_ring", slots_.size() * sizeof(Slot));
}

void FlightRecorder::ring(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  // Publish protocol for the lock-free signal-handler reader: mark the
  // slot empty, rewrite the text, then publish the new length.
  slot.length.store(0, std::memory_order_release);
  std::memcpy(slot.text, line.data(), line.size());
  slot.length.store(static_cast<std::uint32_t>(line.size()),
                    std::memory_order_release);
  seq_.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::on_span(const SpanRecord& span) {
  std::string line = span_to_jsonl(span);
  if (line.size() >= kSlotBytes) {
    // Attribute payloads are unbounded (strings); the core fields are not.
    // Re-render without attrs so the slot always holds complete JSON.
    SpanRecord trimmed = span;
    trimmed.attrs.clear();
    line = span_to_jsonl(trimmed);
  }
  ring(line);
  if (downstream_ != nullptr) downstream_->on_span(span);
}

void FlightRecorder::on_event(const evt::EventRecord& event) {
  std::string line = event_to_jsonl(event);
  if (line.size() >= kSlotBytes) {
    evt::EventRecord trimmed = event;
    trimmed.attrs.clear();
    line = event_to_jsonl(trimmed);
  }
  ring(line);
  if (downstream_ != nullptr) downstream_->on_event(event);
}

std::size_t FlightRecorder::dump(const std::string& path) const {
  AtomicFileWriter writer(path);
  writer.write(manifest_line_);
  writer.write("\n");
  std::size_t written = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq = seq_.load(std::memory_order_acquire);
    const std::uint64_t retained =
        std::min<std::uint64_t>(seq, slots_.size());
    for (std::uint64_t i = seq - retained; i < seq; ++i) {
      const Slot& slot = slots_[i % slots_.size()];
      const std::uint32_t length = slot.length.load(std::memory_order_acquire);
      if (length == 0) continue;
      writer.write(std::string(slot.text, length));
      writer.write("\n");
      ++written;
    }
  }
  // A span is ringed only when it ends, so the ones enclosing this dump
  // (the failing rung, the solve around it) would be missing, and events
  // stamped with their ids would resolve to nothing.
  for (SpanRecord& span : Tracer::open_spans()) {
    span.attrs.emplace_back("open", std::string("true"));
    writer.write(span_to_jsonl(span));
    writer.write("\n");
    ++written;
  }
  writer.commit();
  return written;
}

void FlightRecorder::dump_to_fd(int fd) const {
#if defined(__unix__) || defined(__APPLE__)
  write_fd(fd, manifest_line_.data(), manifest_line_.size());
  write_fd(fd, "\n", 1);
  const std::uint64_t seq = seq_.load(std::memory_order_acquire);
  const std::uint64_t retained = std::min<std::uint64_t>(seq, slots_.size());
  for (std::uint64_t i = seq - retained; i < seq; ++i) {
    const Slot& slot = slots_[i % slots_.size()];
    const std::uint32_t length = slot.length.load(std::memory_order_acquire);
    if (length == 0 || length > kSlotBytes) continue;
    write_fd(fd, slot.text, length);
    write_fd(fd, "\n", 1);
  }
#else
  (void)fd;
#endif
}

FlightRecorder* FlightRecorder::active() {
  return g_active.load(std::memory_order_acquire);
}

void FlightRecorder::set_active(FlightRecorder* recorder) {
  g_active.store(recorder, std::memory_order_release);
}

FlightRecorder* FlightRecorder::install(std::size_t capacity) {
  auto recorder =
      std::make_unique<FlightRecorder>(capacity, Tracer::sink());
  FlightRecorder* raw = recorder.get();
  // Tracer::install retires (never destroys) the previous sink, so the
  // downstream pointer captured above stays valid for the process lifetime.
  Tracer::install(std::move(recorder));
  set_active(raw);
  return raw;
}

}  // namespace stocdr::obs
