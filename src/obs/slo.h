// Multi-window burn-rate SLO monitoring.
//
// An SLO here is two objectives over a rolling horizon:
//   availability  at most (1 - availability_objective) of requests may fail
//                 for server-side reasons (shed, deadline with nothing
//                 scored, no snapshot, internal errors),
//   latency       at most (1 - latency_objective) of answered requests may
//                 take longer than latency_target_us.
//
// Burn rate is the SRE-workbook ratio: (observed bad fraction) divided by
// (error budget). Burn 1.0 spends the budget exactly at the edge of the
// objective; burn 6.0 spends it six times too fast. The monitor evaluates
// the worse of the two objectives over a short window (reacts fast, noisy)
// and a long window (smooths, slow), and classifies:
//
//   kOk      long-window burn < warn_burn
//   kWarn    long-window burn >= warn_burn, or the short window alone is
//            burning at >= breach_burn (early warning)
//   kBreach  short AND long windows both burn at >= breach_burn — the
//            standard multi-window page condition: fast burn that is not
//            just a blip
//
// Windows are slot-granular: an EpochRing of request-count slots (slot
// width = short_window_us); "short" merges the current and previous
// slots, "long" merges every slot in the ring. Callers pass now_us
// explicitly (obs::NowMicros() in production), so tests drive the state
// machine with a synthetic clock — the same pattern as
// serve::CircuitBreaker.
//
// Update() latches the state, counts transitions (slo.transitions) and
// exports slo.state / slo.burn_* gauges. Part of src/obs: standard library
// only (getenv for the LAYERGCN_SLO_* overrides).

#ifndef LAYERGCN_OBS_SLO_H_
#define LAYERGCN_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "obs/epoch_ring.h"

namespace layergcn::obs {

class SloMonitor {
 public:
  struct Options {
    /// Fraction of requests that must not fail server-side.
    double availability_objective = 0.999;
    /// Answered requests slower than this count against the latency SLO.
    uint64_t latency_target_us = 100'000;
    /// Fraction of answered requests that must beat latency_target_us.
    double latency_objective = 0.99;
    /// Short window width; also the ring's slot width.
    uint64_t short_window_us = 5'000'000;
    /// Long window width; rounded up to a multiple of short_window_us.
    uint64_t long_window_us = 60'000'000;
    /// Long-window burn >= this is kWarn.
    double warn_burn = 1.0;
    /// Short + long windows both >= this is kBreach.
    double breach_burn = 6.0;
  };

  enum class State { kOk, kWarn, kBreach };
  static const char* StateName(State state);

  /// `options` overridden by LAYERGCN_SLO_AVAILABILITY,
  /// LAYERGCN_SLO_LATENCY_TARGET_US, LAYERGCN_SLO_LATENCY_OBJECTIVE,
  /// LAYERGCN_SLO_SHORT_WINDOW_US, LAYERGCN_SLO_LONG_WINDOW_US,
  /// LAYERGCN_SLO_WARN_BURN, LAYERGCN_SLO_BREACH_BURN when set and
  /// parseable; malformed values are ignored.
  static Options FromEnv(Options options);

  SloMonitor();  // default Options
  explicit SloMonitor(const Options& options);

  /// Accounts one request. `server_error` = failed for a server-side
  /// reason (availability). `answered` = a response with a meaningful
  /// latency (then `latency_us` feeds the latency objective).
  void Record(uint64_t now_us, bool server_error, bool answered,
              uint64_t latency_us);

  /// Burn rates over both windows; `max_short` / `max_long` are the worse
  /// of the two objectives per window.
  struct Burn {
    double availability_short = 0.0;
    double availability_long = 0.0;
    double latency_short = 0.0;
    double latency_long = 0.0;
    double max_short = 0.0;
    double max_long = 0.0;
    uint64_t total_short = 0;
    uint64_t total_long = 0;
  };
  Burn BurnRates(uint64_t now_us) const;

  /// Re-evaluates the state at `now_us`, latches it, counts a transition
  /// if it changed, and refreshes the slo.* gauges. Returns the new state.
  State Update(uint64_t now_us);

  State state() const;
  /// Lifetime count of state changes latched by Update().
  int64_t transitions() const;

  const Options& options() const { return options_; }

 private:
  struct Slot {
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> answered{0};
    std::atomic<uint64_t> slow{0};
    void Reset();
  };

  struct WindowTotals {
    uint64_t total = 0, errors = 0, answered = 0, slow = 0;
  };
  WindowTotals Merge(uint64_t now_us, int slots_back) const;

  const Options options_;
  EpochRing<Slot> slots_;

  mutable std::mutex state_mu_;
  State state_ = State::kOk;
  int64_t transitions_ = 0;
};

}  // namespace layergcn::obs

#endif  // LAYERGCN_OBS_SLO_H_
