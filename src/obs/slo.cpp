#include "obs/slo.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace layergcn::obs {
namespace {

SloMonitor::Options Sanitize(SloMonitor::Options o) {
  o.availability_objective = std::clamp(o.availability_objective, 0.0, 1.0);
  o.latency_objective = std::clamp(o.latency_objective, 0.0, 1.0);
  if (o.short_window_us == 0) o.short_window_us = 1'000'000;
  if (o.long_window_us < o.short_window_us) {
    o.long_window_us = o.short_window_us;
  }
  return o;
}

void EnvDouble(const char* name, double* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end != v && *end == '\0') *out = parsed;
}

void EnvUint64(const char* name, uint64_t* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end != v && *end == '\0') *out = parsed;
}

// observed bad fraction / error budget; an all-good window burns 0, a
// zero-budget objective burns "infinitely" (capped for display sanity).
double BurnOf(uint64_t bad, uint64_t total, double objective) {
  if (total == 0) return 0.0;
  const double fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  const double budget = 1.0 - objective;
  if (budget <= 0.0) return fraction > 0.0 ? 1e9 : 0.0;
  return fraction / budget;
}

}  // namespace

const char* SloMonitor::StateName(State state) {
  switch (state) {
    case State::kOk: return "ok";
    case State::kWarn: return "warn";
    case State::kBreach: return "breach";
  }
  return "unknown";
}

SloMonitor::Options SloMonitor::FromEnv(Options options) {
  EnvDouble("LAYERGCN_SLO_AVAILABILITY", &options.availability_objective);
  EnvUint64("LAYERGCN_SLO_LATENCY_TARGET_US", &options.latency_target_us);
  EnvDouble("LAYERGCN_SLO_LATENCY_OBJECTIVE", &options.latency_objective);
  EnvUint64("LAYERGCN_SLO_SHORT_WINDOW_US", &options.short_window_us);
  EnvUint64("LAYERGCN_SLO_LONG_WINDOW_US", &options.long_window_us);
  EnvDouble("LAYERGCN_SLO_WARN_BURN", &options.warn_burn);
  EnvDouble("LAYERGCN_SLO_BREACH_BURN", &options.breach_burn);
  return Sanitize(options);
}

SloMonitor::SloMonitor() : SloMonitor(Options()) {}

SloMonitor::SloMonitor(const Options& options)
    : options_(Sanitize(options)),
      slots_(options_.short_window_us,
             static_cast<int>((options_.long_window_us +
                               options_.short_window_us - 1) /
                              options_.short_window_us) +
                 1) {}

void SloMonitor::Slot::Reset() {
  total.store(0, std::memory_order_relaxed);
  errors.store(0, std::memory_order_relaxed);
  answered.store(0, std::memory_order_relaxed);
  slow.store(0, std::memory_order_relaxed);
}

void SloMonitor::Record(uint64_t now_us, bool server_error, bool answered,
                        uint64_t latency_us) {
  Slot* slot = slots_.Acquire(now_us);
  if (slot == nullptr) return;
  slot->total.fetch_add(1, std::memory_order_relaxed);
  if (server_error) slot->errors.fetch_add(1, std::memory_order_relaxed);
  if (answered) {
    slot->answered.fetch_add(1, std::memory_order_relaxed);
    if (latency_us > options_.latency_target_us) {
      slot->slow.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

SloMonitor::WindowTotals SloMonitor::Merge(uint64_t now_us,
                                           int slots_back) const {
  WindowTotals out;
  slots_.ForEach(now_us, slots_back, [&out](const Slot& s) {
    out.total += s.total.load(std::memory_order_relaxed);
    out.errors += s.errors.load(std::memory_order_relaxed);
    out.answered += s.answered.load(std::memory_order_relaxed);
    out.slow += s.slow.load(std::memory_order_relaxed);
  });
  return out;
}

SloMonitor::Burn SloMonitor::BurnRates(uint64_t now_us) const {
  // Short = current + previous slot (spans at least short_window_us of
  // wall clock whatever the phase); long = the whole ring.
  const WindowTotals s = Merge(now_us, 1);
  const WindowTotals l = Merge(now_us, slots_.size() - 1);
  Burn burn;
  burn.availability_short =
      BurnOf(s.errors, s.total, options_.availability_objective);
  burn.availability_long =
      BurnOf(l.errors, l.total, options_.availability_objective);
  burn.latency_short = BurnOf(s.slow, s.answered, options_.latency_objective);
  burn.latency_long = BurnOf(l.slow, l.answered, options_.latency_objective);
  burn.max_short = std::max(burn.availability_short, burn.latency_short);
  burn.max_long = std::max(burn.availability_long, burn.latency_long);
  burn.total_short = s.total;
  burn.total_long = l.total;
  return burn;
}

SloMonitor::State SloMonitor::Update(uint64_t now_us) {
  const Burn burn = BurnRates(now_us);
  State next = State::kOk;
  if (burn.max_short >= options_.breach_burn &&
      burn.max_long >= options_.breach_burn) {
    next = State::kBreach;
  } else if (burn.max_long >= options_.warn_burn ||
             burn.max_short >= options_.breach_burn) {
    next = State::kWarn;
  }
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (next != state_) {
      state_ = next;
      ++transitions_;
      changed = true;
    }
  }
  if (changed) OBS_COUNT("slo.transitions", 1);
  OBS_GAUGE("slo.state", static_cast<int>(next));
  OBS_GAUGE("slo.burn.availability_short", burn.availability_short);
  OBS_GAUGE("slo.burn.availability_long", burn.availability_long);
  OBS_GAUGE("slo.burn.latency_short", burn.latency_short);
  OBS_GAUGE("slo.burn.latency_long", burn.latency_long);
  return next;
}

SloMonitor::State SloMonitor::state() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

int64_t SloMonitor::transitions() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return transitions_;
}

}  // namespace layergcn::obs
