#pragma once
// fault::Injector — the resolved, per-slot view of a fault::Schedule.
//
// The injector is built once per run: it validates the schedule against the
// fleet and horizon, resolves every event list into flat per-slot lookup
// tables, and materializes one dc::Fleet per *distinct* degraded
// configuration (slots sharing a failed-per-group vector share the fleet
// object, so a 6-month outage costs one fleet copy, not 4 000).  After
// construction every hook is a const, allocation-free table lookup — safe to
// call from parallel sweep workers, each of which owns its own injector.
//
// Lint contract (tools/coca_lint.py `fault-hooks`): every Injector method is
// either span-instrumented (obs::ScopedSpan) or carries an explicit
// `// OBS-EXEMPT(why)` waiver, so fault-path time stays attributable in the
// span profile.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dc/fleet.hpp"
#include "fault/schedule.hpp"

namespace coca::fault {

/// Per-channel staleness lags resolved for one slot (0 = fresh input).
struct StalenessLags {
  std::size_t lambda = 0;
  std::size_t price = 0;
  std::size_t renewable = 0;

  bool any() const { return lambda > 0 || price > 0 || renewable > 0; }
  std::int64_t stale_channels() const {
    return (lambda > 0 ? 1 : 0) + (price > 0 ? 1 : 0) + (renewable > 0 ? 1 : 0);
  }
};

/// Degraded-run accounting accumulated by the simulator's fault path and
/// surfaced in sim::SimResult (and the `fault.*` obs counters).
struct FaultStats {
  std::int64_t degraded_slots = 0;        ///< slots run on a degraded fleet
  std::int64_t stale_inputs = 0;          ///< stale channel-slots consumed
  std::int64_t fallback_activations = 0;  ///< deadline fallbacks actuated
  std::int64_t shed_slots = 0;            ///< slots that shed load
  std::int64_t crash_restarts = 0;        ///< controller restore events
  std::int64_t checkpoints_taken = 0;     ///< coca-ckpt-v2 blobs written
  double shed_lambda_total = 0.0;         ///< total shed arrival rate (req/s)
};

class Injector {
 public:
  /// Validates `schedule` against the fleet/horizon (throws
  /// std::invalid_argument like Schedule::validate) and resolves it.  The
  /// baseline fleet must outlive the injector.
  Injector(const dc::Fleet& fleet, const Schedule& schedule,
           std::size_t slots);

  /// The fleet slot t runs on: the baseline or a cached degraded copy.  The
  /// returned reference lives as long as the injector.
  const dc::Fleet& fleet_at(std::size_t t) const;

  // OBS-EXEMPT(constant-time table lookup; the sim's fault_inject span wraps it)
  /// Index of slot t's fleet configuration (0 = baseline).  The simulator
  /// re-seats the controller's fleet only when this changes between slots.
  std::size_t fleet_index_at(std::size_t t) const {
    return fleet_index_[t];
  }

  // OBS-EXEMPT(constant-time table lookup; the sim's fault_inject span wraps it)
  /// True when slot t runs on reduced capacity.
  bool degraded_at(std::size_t t) const { return fleet_index_[t] != 0; }

  // OBS-EXEMPT(constant-time table lookup; the sim's fault_inject span wraps it)
  /// Telemetry lags in effect for slot t (max over overlapping events).
  StalenessLags staleness_at(std::size_t t) const { return lags_[t]; }

  // OBS-EXEMPT(constant-time table lookup; the sim's fault_inject span wraps it)
  /// Slot-solve evaluation budget: negative = unlimited, 0 = the deadline
  /// passed before the solve could start (skip it, actuate the fallback),
  /// otherwise the min over overlapping deadline events.
  std::int64_t evaluation_budget(std::size_t t) const { return budgets_[t]; }

  // OBS-EXEMPT(constant-time table lookup; the sim's fault_inject span wraps it)
  /// True when the controller crashes before planning slot t.
  bool crash_before(std::size_t t) const { return crash_[t] != 0; }

  // OBS-EXEMPT(trivial accessor)
  std::size_t checkpoint_every() const { return schedule_.checkpoint_every; }
  // OBS-EXEMPT(trivial accessor)
  bool has_crashes() const { return !schedule_.crashes.empty(); }
  // OBS-EXEMPT(trivial accessor)
  double shed_jobs_per_rps() const { return schedule_.shed_jobs_per_rps; }
  // OBS-EXEMPT(trivial accessor)
  const Schedule& schedule() const { return schedule_; }
  // OBS-EXEMPT(trivial accessor)
  std::size_t slots() const { return fleet_index_.size(); }
  // OBS-EXEMPT(trivial accessor)
  std::size_t distinct_fleets() const { return degraded_.size() + 1; }

 private:
  const dc::Fleet* baseline_;
  Schedule schedule_;
  std::vector<std::size_t> fleet_index_;  ///< per slot; 0 = baseline
  /// Distinct degraded configurations; fleet index i >= 1 -> degraded_[i-1].
  std::vector<std::unique_ptr<dc::Fleet>> degraded_;
  std::vector<StalenessLags> lags_;
  std::vector<std::int64_t> budgets_;
  std::vector<std::uint8_t> crash_;
};

}  // namespace coca::fault
