#pragma once
// PerfectHP: the "perfect hourly prediction" heuristic the paper compares
// against (Sec. 5.2.2), representing prediction-based energy-capping methods
// [17, 31].
//
// Construction (as in the paper): the operator has a perfect 48-hour-ahead
// forecast of hourly workloads.  The annual carbon budget — RECs plus
// off-site renewables, *excluding* on-site generation — is pre-split evenly
// across 48-hour windows; within each window the hourly budget is allocated
// in proportion to the (perfectly predicted) hourly workloads.  Each hour the
// operator minimizes cost subject to its hourly cap; when the cap is
// infeasible (workload burst), it is dropped for that hour.  Caps are
// workload-proportional and move smoothly from hour to hour, so each hour's
// multiplier search starts from the last binding hour's multiplier.

#include <vector>

#include "core/controller.hpp"
#include "energy/budget.hpp"
#include "opt/capped_slot_solver.hpp"

namespace coca::baselines {

struct PerfectHpConfig {
  std::size_t window_hours = 48;  ///< prediction horizon (paper: 48 h)
  opt::LadderConfig ladder;
};

class PerfectHpController final : public core::SlotController {
 public:
  /// `workload_forecast`: the hourly workload trace (perfect prediction);
  /// `budget`: the carbon budget whose allowance is being allocated.
  PerfectHpController(const dc::Fleet& fleet, opt::SlotWeights weights,
                      const coca::workload::Trace& workload_forecast,
                      const energy::CarbonBudget& budget,
                      PerfectHpConfig config = {});

  std::string name() const override { return "PerfectHP"; }
  opt::SlotSolution plan(std::size_t t, const opt::SlotInput& input) override;

  /// The precomputed hourly caps b(t) in kWh (exposed for tests).
  const std::vector<double>& hourly_caps() const { return caps_; }
  /// Hours whose cap had to be dropped so far.
  std::size_t caps_dropped() const { return caps_dropped_; }
  /// Ladder solves and multiplier probes used so far.
  std::size_t ladder_solves() const { return ladder_solves_; }

 private:
  const dc::Fleet* fleet_;
  opt::SlotWeights weights_;
  opt::CappedSlotSolver solver_;
  std::vector<double> caps_;
  std::size_t caps_dropped_ = 0;
  std::size_t ladder_solves_ = 0;
  /// Warm start of the multiplier search: the last binding multiplier.
  double hint_ = 0.0;
};

}  // namespace coca::baselines
