#include "robust/faultinject/faultinject.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"

namespace stocdr::robust::fi {

namespace {

obs::Counter& fired_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("faultinject.fired");
  return c;
}

std::mutex g_mutex;
std::unique_ptr<FaultPlan> g_plan;             // guarded by g_mutex
std::atomic<bool> g_active{false};             // fast no-plan path
std::once_flag g_env_once;

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Action parse_action(std::string_view text) {
  if (text == "fail") return Action::kFail;
  if (text == "corrupt") return Action::kCorrupt;
  if (text == "torn") return Action::kTorn;
  if (text == "nan") return Action::kNan;
  if (text == "stall") return Action::kStall;
  if (text == "kill") return Action::kKill;
  throw PreconditionError("fault plan: unknown action \"" +
                          std::string(text) +
                          "\" (fail|corrupt|torn|nan|stall|kill)");
}

/// The support-layer seam: AtomicFileWriter cannot call up into this
/// library, so commits consult a function pointer we install whenever a
/// plan is active.  Returns the integer contract of stocdr::IoFaultHook.
int io_write_hook(const char* site) {
  switch (arm(site)) {
    case Action::kFail: return 1;
    case Action::kTorn: return 2;
    default: return 0;  // corrupt/nan/stall are meaningless for a commit
  }
}

void init_env_plan_locked() {
  const char* spec = std::getenv("STOCDR_FAULT_PLAN");
  if (spec == nullptr || spec[0] == '\0') return;
  try {
    g_plan = std::make_unique<FaultPlan>(FaultPlan::parse(spec));
  } catch (const Error& e) {
    // A malformed plan must not take the host process down — chaos tooling
    // stays opt-in and fail-safe.  Announce and run un-faulted.
    std::fprintf(stderr, "stocdr: ignoring malformed STOCDR_FAULT_PLAN: %s\n",
                 e.what());
    g_plan = nullptr;
    return;
  }
  if (!g_plan->empty()) {
    g_active.store(true, std::memory_order_release);
    set_io_fault_hook(&io_write_hook);
    std::fprintf(stderr, "stocdr: fault plan active: %s\n", spec);
  }
}

void ensure_env_plan() {
  std::call_once(g_env_once, [] {
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (g_plan == nullptr) init_env_plan_locked();
  });
}

/// Pulls the environment plan up at static-initialization time so sites
/// that fire before any robust-layer call (e.g. an AtomicFileWriter commit
/// in a bench) still see STOCDR_FAULT_PLAN.  This object lives in the same
/// translation unit as arm(), so any binary whose code can arm a site also
/// runs this initializer.
const bool g_eager_env_init = [] {
  ensure_env_plan();
  return true;
}();

}  // namespace

const char* to_string(Action action) {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kFail: return "fail";
    case Action::kCorrupt: return "corrupt";
    case Action::kTorn: return "torn";
    case Action::kNan: return "nan";
    case Action::kStall: return "stall";
    case Action::kKill: return "kill";
  }
  return "unknown";
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string_view clause =
        trim(spec.substr(start, semi == std::string_view::npos
                                    ? std::string_view::npos
                                    : semi - start));
    start = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (clause.empty()) continue;

    const std::size_t colon = clause.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      throw PreconditionError("fault plan: clause \"" + std::string(clause) +
                              "\" is not site:action[@N[+]]");
    }
    Directive d;
    d.site = std::string(trim(clause.substr(0, colon)));

    std::string_view rest = trim(clause.substr(colon + 1));
    const std::size_t at = rest.find('@');
    if (at == std::string_view::npos) {
      d.action = parse_action(rest);
      d.at = 1;
      d.sticky = true;  // bare form: fire on every arming
    } else {
      d.action = parse_action(trim(rest.substr(0, at)));
      std::string_view count = trim(rest.substr(at + 1));
      if (!count.empty() && count.back() == '+') {
        d.sticky = true;
        count = count.substr(0, count.size() - 1);
      }
      if (count.empty()) {
        throw PreconditionError("fault plan: \"" + std::string(clause) +
                                "\" has an empty @count");
      }
      std::uint64_t value = 0;
      for (const char c : count) {
        if (c < '0' || c > '9') {
          throw PreconditionError("fault plan: \"" + std::string(clause) +
                                  "\" has a non-numeric @count");
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (value == 0) {
        throw PreconditionError("fault plan: @count is 1-based; \"" +
                                std::string(clause) + "\" uses @0");
      }
      d.at = value;
    }
    plan.directives_.push_back(std::move(d));
  }
  return plan;
}

Action FaultPlan::arm(std::string_view site) {
  SiteCount* count = nullptr;
  for (SiteCount& c : counts_) {
    if (c.site == site) {
      count = &c;
      break;
    }
  }
  if (count == nullptr) {
    counts_.push_back({std::string(site), 0});
    count = &counts_.back();
  }
  const std::uint64_t hit = ++count->hits;
  for (const Directive& d : directives_) {
    if (d.site != site) continue;
    if (d.sticky ? hit >= d.at : hit == d.at) {
      ++fired_;
      return d.action;
    }
  }
  return Action::kNone;
}

std::uint64_t FaultPlan::hits(std::string_view site) const {
  for (const SiteCount& c : counts_) {
    if (c.site == site) return c.hits;
  }
  return 0;
}

Action arm(std::string_view site) {
  if (!g_active.load(std::memory_order_acquire)) return Action::kNone;
  Action action = Action::kNone;
  std::uint64_t hit = 0;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (g_plan == nullptr) return Action::kNone;
    action = g_plan->arm(site);
    hit = g_plan->hits(site);
  }
  if (action == Action::kNone) return action;
  fired_counter().add(1);
  std::fprintf(stderr, "stocdr: fault injected: site=%.*s action=%s hit=%llu\n",
               static_cast<int>(site.size()), site.data(), to_string(action),
               static_cast<unsigned long long>(hit));
  obs::evt::emit("fault.fired", obs::evt::Severity::kWarning,
                 {{"site", std::string(site)},
                  {"action", std::string(to_string(action))},
                  {"hit", hit}});
  if (action == Action::kKill) {
    std::fflush(nullptr);  // a deterministic chaos kill, not a real crash:
    std::raise(SIGKILL);   // flush stdio so logs up to the kill survive
  }
  return action;
}

void install_plan(std::optional<FaultPlan> plan) {
  // Pin the env lookup first so a later lazy init cannot overwrite an
  // explicitly installed (or explicitly cleared) plan.
  ensure_env_plan();
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (plan.has_value() && !plan->empty()) {
    g_plan = std::make_unique<FaultPlan>(std::move(*plan));
    g_active.store(true, std::memory_order_release);
    set_io_fault_hook(&io_write_hook);
  } else {
    g_plan = nullptr;
    g_active.store(false, std::memory_order_release);
  }
}

bool plan_active() {
  ensure_env_plan();
  return g_active.load(std::memory_order_acquire);
}

}  // namespace stocdr::robust::fi
