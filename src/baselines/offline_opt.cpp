#include "baselines/offline_opt.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/solvers.hpp"

namespace coca::baselines {

OfflineSchedule solve_with_multiplier(const dc::Fleet& fleet,
                                      std::span<const double> lambda,
                                      std::span<const double> onsite_kw,
                                      std::span<const double> price,
                                      const opt::SlotWeights& weights,
                                      double multiplier) {
  if (lambda.size() != onsite_kw.size() || lambda.size() != price.size()) {
    throw std::invalid_argument("solve_with_multiplier: span size mismatch");
  }
  const opt::LadderSolver solver;
  opt::SlotWeights w = weights;
  w.V = 1.0;
  w.q = multiplier;

  OfflineSchedule schedule;
  schedule.multiplier = multiplier;
  for (std::size_t t = 0; t < lambda.size(); ++t) {
    const opt::SlotInput input{lambda[t], onsite_kw[t], price[t]};
    const auto solution = solver.solve(fleet, input, w);
    // Lift the solver's raw-double outcome into the dimensioned tallies.
    schedule.total_cost += units::usd(solution.outcome.total_cost);
    schedule.total_brown_kwh += units::kwh(solution.outcome.brown_kwh);
  }
  return schedule;
}

OfflineSchedule solve_offline_opt(const dc::Fleet& fleet,
                                  std::span<const double> lambda,
                                  std::span<const double> onsite_kw,
                                  std::span<const double> price,
                                  const opt::SlotWeights& weights,
                                  double allowance_kwh) {
  const auto pass = [&](double multiplier) {
    return solve_with_multiplier(fleet, lambda, onsite_kw, price, weights,
                                 multiplier);
  };
  // mu = 0: the unconstrained cost minimizer.  If it meets the budget,
  // complementary slackness says it is optimal.
  OfflineSchedule unconstrained = pass(0.0);
  if (unconstrained.total_brown_kwh <=
      units::kwh(allowance_kwh) * (1.0 + 1e-9)) {
    unconstrained.budget_met = true;
    return unconstrained;
  }

  // The cheapest pass that meets the allowance.  If even the frugal limit
  // misses (the workload physically requires more brown energy), the frugal
  // schedule, the last pass, is returned unmet.
  double max_price = 0.0, mean_price = 0.0;
  for (double p : price) {
    max_price = std::max(max_price, p);
    mean_price += p;
  }
  mean_price /= static_cast<double>(std::max<std::size_t>(1, price.size()));
  OfflineSchedule probe, kept;
  const auto search = util::smallest_multiplier(
      [&](double multiplier) {
        probe = pass(multiplier);
        return util::MultiplierProbe{
            probe.total_brown_kwh.value(),  // UNITS: searched against kWh
            probe.total_cost.value()};      // UNITS: ranks the met passes
      },
      [&] { kept = probe; }, allowance_kwh,
      unconstrained.total_brown_kwh.value(),  // UNITS: searched against kWh
      1e7 * std::max(1.0, max_price), std::max(1e-3, mean_price));
  if (!search.met) return probe;
  kept.budget_met = true;
  return kept;
}

}  // namespace coca::baselines
