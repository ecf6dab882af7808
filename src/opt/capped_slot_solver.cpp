#include "opt/capped_slot_solver.hpp"

#include <algorithm>

namespace coca::opt {
namespace {

// The unconstrained optimum, then the multiplier search if it misses the
// target.  A target at or above the on-site supply binds on grid power
// (price V*w + q + m), one below it on free on-site energy (price m).
CappedSlotResult solve_capped(const LadderSolver& solver,
                              const dc::Fleet& fleet, const SlotInput& input,
                              const SlotWeights& base, double target_kw,
                              double hint) {
  CappedSlotResult result;
  LoadLpContext lp(fleet);  // shared by every clearing below
  result.solution = solver.solve(fleet, input, base, &lp);
  result.clearings = 1;
  if (!result.solution.feasible) return result;
  result.cap_met = result.solution.outcome.facility_power_kw <= target_kw;
  if (result.cap_met) return result;
  const bool below = target_kw < input.onsite_kw;
  const double mu0 = below ? base.power_price : base.brown_price(input.price);
  SlotSolution pinned;
  const auto search = solver.clear_to_power(
      fleet, input, base, mu0, target_kw,
      result.solution.outcome.facility_power_kw,
      std::max(1.0, base.V * input.price) * 1e7, hint, lp, pinned);
  result.clearings += search.probes;
  result.cap_dropped = !search.met;
  if (result.cap_dropped) return result;  // the unconstrained solution stands
  result.solution = std::move(pinned);
  if (below) result.solution.regime = PowerRegime::kRenewable;
  result.multiplier = search.multiplier;
  result.cap_met = true;
  return result;
}

}  // namespace

// OBS-EXEMPT(tiered/PerfectHP callers open the enclosing span)
// Adding a span here would change the paths pinned by obs_trace_golden_test.
CappedSlotResult CappedSlotSolver::solve(const dc::Fleet& fleet,
                                         const SlotInput& input,
                                         const SlotWeights& weights,
                                         double cap_kwh, double hint) const {
  SlotWeights w = weights;
  w.q = 0.0;
  const double target = input.onsite_kw + cap_kwh * (1 + 1e-9) / w.slot_hours;
  return solve_capped(solver_, fleet, input, w, target, hint);
}

CappedSlotResult solve_power_capped(const dc::Fleet& fleet,
                                    const SlotInput& input,
                                    const SlotWeights& weights,
                                    double max_facility_kw,
                                    const LadderConfig& ladder, double hint) {
  SlotWeights base = weights;
  base.power_price = 0.0;
  return solve_capped(LadderSolver(ladder), fleet, input, base,
                      max_facility_kw * (1.0 + 1e-9), hint);
}

}  // namespace coca::opt
