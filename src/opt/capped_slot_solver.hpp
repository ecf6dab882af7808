#pragma once
// Capped single-slot solvers, by Lagrangian relaxation of the cap.  The
// multiplier of a brown-energy cap y(t) <= cap (PerfectHP's hourly budgets,
// Sec. 5.2.2; tiered-tariff block boundaries) plays exactly the role of
// COCA's queue q (Sec. 4.2); that of a facility-power cap (Sec. 3.1: "peak
// power ... can also be incorporated") is SlotWeights::power_price.  Both add
// to the clearing price, and both caps are a target on the facility power of
// one ladder clearing (r + cap/h, or max_kw): a nonincreasing, piecewise
// smooth staircase in the multiplier, which LadderSolver::clear_to_power
// (util::smallest_multiplier) drives to its target.  Where a cap binds, the
// solution sits on one side of the renewable kink, so each probe is a single
// clearing.  When even the most frugal clearing misses, the cap is dropped,
// as in the paper's PerfectHP ("if no feasible solution exists ... minimize
// the cost without considering the hourly carbon budget").

#include "opt/ladder_solver.hpp"

namespace coca::opt {

struct CappedSlotResult {
  SlotSolution solution;
  double multiplier = 0.0;  ///< Lagrange multiplier on the cap
  bool cap_met = false;     ///< the cap holds at the returned solution
  bool cap_dropped = false; ///< cap was infeasible and ignored
  int clearings = 0;        ///< ladder solves and probes used
};

class CappedSlotSolver {
 public:
  explicit CappedSlotSolver(LadderConfig ladder = {}) : solver_(ladder) {}

  /// Minimize g(t) subject to y(t) <= cap_kwh (kWh of brown energy), the
  /// search starting at `hint` (e.g. the last binding multiplier).  The
  /// ladder's polish applies to the unconstrained solve, not to the probes.
  CappedSlotResult solve(const dc::Fleet& fleet, const SlotInput& input,
                         const SlotWeights& weights, double cap_kwh,
                         double hint = 0.0) const;

 private:
  LadderSolver solver_;
};

/// Peak-power extension: minimize the P3 objective subject to facility
/// power <= max_facility_kw (a provisioned-power or breaker limit).  The
/// multiplier is $/kWh on facility energy; a dropped cap is one below the
/// minimum power serving lambda.
CappedSlotResult solve_power_capped(const dc::Fleet& fleet,
                                    const SlotInput& input,
                                    const SlotWeights& weights,
                                    double max_facility_kw,
                                    const LadderConfig& ladder = {},
                                    double hint = 0.0);

}  // namespace coca::opt
