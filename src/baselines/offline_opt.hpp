#pragma once
// OPT: the offline benchmark with complete future information (Fig. 5).
//
// The year-long problem P1 couples all slots only through the single
// carbon-neutrality constraint (10), so its Lagrangian dual decomposes into
// per-slot problems  min_t g(t) + mu * y(t)  — structurally identical to P3
// with a *constant* queue length mu.  Annual brown energy is nonincreasing
// in mu, so util::smallest_multiplier (the search every per-slot cap uses,
// one whole-span pass per probe) finds the multiplier whose relaxed schedule
// exhausts the budget (complementary slackness).  For this problem
// the per-slot decisions are effectively continuous (thousands of servers),
// so the duality gap is negligible; tests verify OPT lower-bounds COCA.

#include <span>
#include <vector>

#include "opt/ladder_solver.hpp"
#include "util/units.hpp"

namespace coca::baselines {

struct OfflineSchedule {
  double multiplier = 0.0;            ///< dual price on the annual budget
  units::Usd total_cost;              ///< annual cost at the schedule
  units::KiloWattHours total_brown_kwh;  ///< annual brown energy
  bool budget_met = false;
};

/// Compute the OPT schedule for the given environment (equal-length spans of
/// workload req/s, on-site kW, price $/kWh) under an annual brown-energy
/// allowance (kWh).  Weights supply beta/gamma/pue/slot_hours (V=1 is used).
OfflineSchedule solve_offline_opt(const dc::Fleet& fleet,
                                  std::span<const double> lambda,
                                  std::span<const double> onsite_kw,
                                  std::span<const double> price,
                                  const opt::SlotWeights& weights,
                                  double allowance_kwh);

/// One relaxed pass: solve every slot at a fixed multiplier.  Exposed for
/// the lookahead family and tests.
OfflineSchedule solve_with_multiplier(const dc::Fleet& fleet,
                                      std::span<const double> lambda,
                                      std::span<const double> onsite_kw,
                                      std::span<const double> price,
                                      const opt::SlotWeights& weights,
                                      double multiplier);

}  // namespace coca::baselines
