#include "robust/journal/journal.hpp"

#include <unistd.h>

#include <cstdio>

#include "obs/analyze/json_parse.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject/faultinject.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"

namespace stocdr::robust::jnl {

namespace {

/// Reads the whole file at `path` ("" when absent/unreadable — both mean a
/// fresh journal).
std::string slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string bytes;
  char buf[1 << 15];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, file)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(file);
  return bytes;
}

std::string header_line(std::string_view config_hash,
                        std::size_t points_total) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("journal", "stocdr-sweep");
  w.field("version", std::uint64_t{kJournalVersion});
  w.field("config_hash", config_hash);
  if (points_total > 0) {
    w.field("points_total", static_cast<std::uint64_t>(points_total));
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace

SweepJournal::SweepJournal(std::string path, std::string config_hash,
                           std::size_t points_total)
    : path_(std::move(path)),
      config_hash_(std::move(config_hash)),
      points_total_(points_total) {
  STOCDR_REQUIRE(!path_.empty(), "SweepJournal: path must not be empty");
  recover();
  const bool need_header = stats_.fresh;
  if (need_header) points_total_ = points_total;  // recover() may have reset
  file_ = std::fopen(path_.c_str(), need_header ? "wb" : "ab");
  if (file_ == nullptr) {
    throw IoError("SweepJournal: cannot open " + path_);
  }
  if (need_header) {
    append_line(header_line(config_hash_, points_total_), "journal header");
  } else if (stats_.resumed > 0 || stats_.torn_tail_bytes > 0 ||
             stats_.malformed_lines > 0) {
    obs::evt::emit(
        "journal.recovered", obs::evt::Severity::kInfo,
        {{"path", path_},
         {"resumed", std::uint64_t{stats_.resumed}},
         {"torn_tail_bytes", std::uint64_t{stats_.torn_tail_bytes}},
         {"malformed_lines", std::uint64_t{stats_.malformed_lines}}});
  }
}

SweepJournal::~SweepJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void SweepJournal::recover() {
  const std::string bytes = slurp(path_);
  if (bytes.empty()) {
    stats_.fresh = true;
    return;
  }

  // Split into lines, remembering the byte offset just past each good
  // line's newline so a torn tail can be truncated away precisely.
  std::size_t good_end = 0;   // file offset after the last good line
  std::size_t line_no = 0;
  bool header_ok = false;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t newline = bytes.find('\n', start);
    const bool terminated = newline != std::string::npos;
    const std::string_view line(bytes.data() + start,
                                (terminated ? newline : bytes.size()) - start);
    const std::size_t line_end = terminated ? newline + 1 : bytes.size();
    const bool is_tail = !terminated || line_end == bytes.size();
    ++line_no;

    const auto parsed = obs::analyze::parse_json(line);
    bool good = false;
    if (parsed.has_value() && parsed->is_object()) {
      if (line_no == 1) {
        // Header line: must be ours, right version, right config.
        const auto* kind = parsed->find("journal");
        const auto* version = parsed->find("version");
        const auto* hash = parsed->find("config_hash");
        const std::uint64_t v =
            version != nullptr ? version->uint_or(0) : 0;
        if (kind != nullptr && kind->string_or("") == "stocdr-sweep" &&
            v >= kOldestReplayableVersion && v <= kJournalVersion &&
            hash != nullptr && hash->string_or("") == config_hash_) {
          good = terminated;
          header_ok = good;
          if (good) {
            if (const auto* total = parsed->find("points_total")) {
              points_total_ = static_cast<std::size_t>(total->uint_or(0));
            }
          }
        } else {
          // A well-formed header for some *other* sweep: the whole journal
          // is for a different configuration.  Start fresh rather than
          // replaying foreign results.
          stats_ = JournalStats{};
          stats_.fresh = true;
          stats_.config_mismatch = true;
          return;
        }
      } else {
        const auto* point = parsed->find("point");
        const auto* result = parsed->find("result");
        if (point != nullptr && point->type ==
                obs::analyze::JsonValue::Type::kString &&
            result != nullptr) {
          good = terminated;
          if (good) {
            Record record;
            record.point = point->string;
            record.result = obs::analyze::to_json_text(*result);
            // v2 ledger entry; absent (v1) leaves stats.valid false.
            if (const auto* stats = parsed->find("stats");
                stats != nullptr && stats->is_object()) {
              record.stats.valid = true;
              if (const auto* f = stats->find("wall_seconds")) {
                record.stats.wall_seconds = f->number_or(0.0);
              }
              if (const auto* f = stats->find("iterations")) {
                record.stats.iterations = f->uint_or(0);
              }
              if (const auto* f = stats->find("residual")) {
                record.stats.residual = f->number_or(0.0);
              }
              if (const auto* f = stats->find("peak_bytes")) {
                record.stats.peak_bytes = f->uint_or(0);
              }
            }
            records_.push_back(std::move(record));
          }
        }
      }
    }

    if (good) {
      good_end = line_end;
    } else if (is_tail) {
      // Torn tail: exactly what a crash mid-append leaves behind.  Truncate
      // back to the last good boundary so future appends stay well-formed.
      stats_.torn_tail_bytes = bytes.size() - good_end;
      if (::truncate(path_.c_str(), static_cast<off_t>(good_end)) != 0) {
        throw IoError("SweepJournal: cannot truncate torn tail of " + path_);
      }
    } else if (line_no == 1) {
      // First line malformed with more lines after it: not a journal we can
      // trust at all.  Start fresh.
      stats_ = JournalStats{};
      stats_.fresh = true;
      stats_.config_mismatch = true;
      return;
    } else {
      ++stats_.malformed_lines;  // interior bit rot: count, skip, keep going
    }
    start = line_end;
  }

  if (!header_ok) {
    // Keep the damage counters (they describe real on-disk damage) but
    // nothing is replayable without a validated header.
    records_.clear();
    stats_.resumed = 0;
    stats_.fresh = true;
    return;
  }
  stats_.resumed = records_.size();
}

const std::string* SweepJournal::result(std::string_view point_key) const {
  for (const Record& record : records_) {
    if (record.point == point_key) return &record.result;
  }
  return nullptr;
}

const PointStats* SweepJournal::point_stats(
    std::string_view point_key) const {
  for (const Record& record : records_) {
    if (record.point == point_key) {
      return record.stats.valid ? &record.stats : nullptr;
    }
  }
  return nullptr;
}

void SweepJournal::append_line(const std::string& line, const char* what) {
  std::size_t persist = line.size();
  bool torn = false;
  switch (fi::arm("journal_append")) {
    case fi::Action::kFail:
      throw IoError("SweepJournal: injected append failure for " + path_);
    case fi::Action::kTorn:
      persist = line.size() / 2;  // no newline: a mid-append crash
      torn = true;
      break;
    default:
      break;
  }
  if (std::fwrite(line.data(), 1, persist, file_) != persist ||
      (!torn && std::fputc('\n', file_) == EOF)) {
    throw IoError("SweepJournal: short write appending to " + path_);
  }
  flush_and_sync(file_, std::string(what) + " in " + path_);
  if (torn) {
    // The prefix is durably on disk, exactly as a crash would leave it; the
    // in-memory record must NOT be kept, so surface the failure.
    throw IoError("SweepJournal: injected torn append for " + path_);
  }
}

void SweepJournal::append(std::string_view point_key,
                          std::string_view result_json,
                          const PointStats& stats) {
  STOCDR_REQUIRE(!has(point_key),
                 "SweepJournal: point appended twice: " +
                     std::string(point_key));
  obs::JsonWriter w;
  w.begin_object();
  w.field("point", point_key);
  w.key("result");
  w.raw_value(result_json);
  if (stats.valid) {
    w.key("stats");
    w.begin_object();
    w.field("wall_seconds", stats.wall_seconds);
    w.field("iterations", stats.iterations);
    w.field("residual", stats.residual);
    w.field("peak_bytes", stats.peak_bytes);
    w.end_object();
  }
  w.end_object();
  append_line(std::move(w).str(), "point record");
  Record record;
  record.point = std::string(point_key);
  record.result = std::string(result_json);
  record.stats = stats;
  records_.push_back(std::move(record));
}

}  // namespace stocdr::robust::jnl
