#pragma once
// Capped single-slot solvers, by Lagrangian relaxation of the cap.  The
// multiplier of a brown-energy cap y(t) <= cap (PerfectHP's hourly budgets,
// Sec. 5.2.2; tiered-tariff block boundaries) plays exactly the role of
// COCA's queue q (Sec. 4.2); that of a facility-power cap (Sec. 3.1: "peak
// power ... can also be incorporated") is SlotWeights::power_price.  Both add
// to the clearing price, and both caps are a target on the facility power of
// one ladder clearing (r + cap/h, or max_kw): a nonincreasing, piecewise
// smooth staircase in the multiplier, which one search drives to its target.
// Where a cap binds, the solution sits on one side of the renewable kink, so
// each probe is a single clearing.  When even the most frugal clearing
// misses, the cap is dropped, as in the paper's PerfectHP ("if no feasible
// solution exists ... minimize the cost without considering the hourly
// carbon budget").

#include <functional>

#include "opt/ladder_solver.hpp"

namespace coca::opt {

struct CappedSlotResult {
  SlotSolution solution;
  double multiplier = 0.0;  ///< Lagrange multiplier on the cap
  bool cap_met = false;     ///< the cap holds at the returned solution
  bool cap_dropped = false; ///< cap was infeasible and ignored
  int clearings = 0;        ///< ladder solves and probes used
};

/// The smallest m in (0, frugal] whose clearing clear(m) (scored without the
/// multiplier's own term) draws at most target_kw, given the power at m = 0
/// (above it): a bracketed, safeguarded Illinois secant on
/// ln(1e-9*frugal + m).  The first probe is at `hint` (0: cold); if it
/// misses, the frugal limit is probed next and decides cap_met.  Stops once
/// the kept probe is within 1e-5 of the target (or of the nearest miss), the
/// bracket within 1e-4, or after 60 clearings.  Returns the lowest-objective
/// probe that met the target — always a probe it checked.
CappedSlotResult smallest_multiplier(
    const std::function<SlotSolution(double)>& clear, double target_kw,
    double power_at_zero, double frugal, double hint);

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
