#pragma once
// Per-slot records and aggregate metrics of a simulation run: the quantities
// every figure in the paper's evaluation is built from (hourly cost, hourly
// carbon deficit, queue length, energy breakdown, switching activity).

#include <cstddef>
#include <vector>

#include "energy/budget.hpp"
#include "util/units.hpp"

namespace coca::sim {

/// Dimensioned fields carry their units in the type (util/units.hpp): a
/// record can only be filled by explicitly lifting the solver's raw doubles,
/// and the aggregate accessors below are the sanctioned raw-double reporting
/// boundary.  queue_length stays raw by design — q(t) is the unit-bridging
/// Lyapunov shadow price, solver math rather than physics.
struct SlotRecord {
  units::RequestsPerSec lambda;     ///< actual workload served
  units::KiloWatts it_power_kw;
  units::KiloWatts facility_power_kw;
  units::KiloWattHours brown_kwh;   ///< y(t), including switching energy
  units::Usd electricity_cost;
  units::Usd delay_cost;
  units::Usd total_cost;            ///< g(t) = electricity + delay
  units::Usd rec_cost;              ///< dynamic REC spend billed this slot
  double queue_length = 0.0;        ///< carbon-deficit queue after the slot
  double active_servers = 0.0;
  double toggles = 0.0;             ///< on/off transitions this slot
  units::KiloWattHours switching_kwh;
  // Fault injection (src/fault): all-zero/false on clean runs.
  units::RequestsPerSec shed_lambda;  ///< arrival rate shed this slot
  bool degraded = false;            ///< slot ran on a degraded fleet
  bool stale = false;               ///< planned on >= 1 stale input channel
  bool fallback = false;            ///< deadline fallback actuated
};

class Metrics {
 public:
  void record(const SlotRecord& slot) { slots_.push_back(slot); }
  /// Pre-size for `slots` records so a run of known length never regrows.
  void reserve(std::size_t slots) { slots_.reserve(slots); }
  std::size_t slot_count() const { return slots_.size(); }
  const std::vector<SlotRecord>& slots() const { return slots_; }

  /// All dollars billed during the run: ops (electricity + delay) plus any
  /// dynamic REC spend.  Controllers without a REC market are unaffected
  /// (their rec_cost is identically 0).
  double total_cost() const;
  /// Ops-only dollars (electricity + delay), the paper's sum of g(t).
  double total_ops_cost() const;
  double total_brown_kwh() const;
  double total_electricity_cost() const;
  double total_delay_cost() const;
  /// Dynamic REC procurement spend billed by the simulator ($).
  double total_rec_cost() const;
  double total_switching_kwh() const;
  /// Total arrival rate shed across the run (req/s summed over shed slots;
  /// 0 on clean runs).
  double total_shed_lambda() const;
  /// Fault-injection slot counts (all 0 on clean runs).
  std::size_t degraded_slot_count() const;
  std::size_t stale_slot_count() const;
  std::size_t fallback_count() const;
  std::size_t shed_slot_count() const;
  /// Average hourly cost (the paper's g-bar plus any REC spend).
  double average_cost() const;
  /// Average hourly brown energy.
  double average_brown_kwh() const;

  /// Extract per-slot series for plotting/analysis.
  std::vector<double> cost_series() const;
  std::vector<double> brown_series() const;
  std::vector<double> queue_series() const;
  std::vector<double> delay_cost_series() const;

  /// Hourly carbon-deficit series against a budget (brown - allowance).
  std::vector<double> deficit_series(const energy::CarbonBudget& budget) const;
  /// Average hourly deficit (can be negative: surplus).
  double average_deficit(const energy::CarbonBudget& budget) const;

 private:
  std::vector<SlotRecord> slots_;
};

}  // namespace coca::sim
