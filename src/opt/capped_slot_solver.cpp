#include "opt/capped_slot_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
  CappedSlotResult search = smallest_multiplier(
      [&](double m) {
        return solver.solve_linear(fleet, input, base, mu0 + m, lp);
      },
      target_kw, result.solution.outcome.facility_power_kw,
      std::max(1.0, base.V * input.price) * 1e7, hint);
  result.clearings += search.clearings;
  result.cap_dropped = !search.cap_met;
  if (result.cap_dropped) return result;  // the unconstrained solution stands
  search.clearings = result.clearings;
  if (below) search.solution.regime = PowerRegime::kRenewable;
  return search;
}

}  // namespace

CappedSlotResult smallest_multiplier(
    const std::function<SlotSolution(double)>& clear, double target_kw,
    double power_at_zero, double frugal, double hint) {
  constexpr double kMiss = std::numeric_limits<double>::infinity();
  // p falls roughly linearly in u = ln(offset + m); the offset keeps m = 0
  // finite.
  const double offset = 1e-9 * frugal;
  const auto to_u = [&](double m) { return std::log(offset + m); };
  const double tol_kw = 1e-5 * std::max(1.0, target_kw);
  // The bracket: m_lo misses the target by f_lo > 0, m_hi meets it; g_* are
  // the Illinois-weighted excesses, `slope` the secant (in u) through the
  // last two misses, `moved` the end that moved last (+1 lo, -1 hi).
  double m_lo = 0.0, f_lo = power_at_zero - target_kw, g_lo = f_lo, slope = 0;
  double m_hi = frugal, f_hi = 0.0, g_hi = 0.0;
  int moved = 0;
  double m = std::min(hint > 0.0 ? hint : offset, frugal);
  CappedSlotResult search;
  while (search.clearings < 60) {
    SlotSolution solution = clear(m);
    ++search.clearings;
    const double f = solution.feasible
                         ? solution.outcome.facility_power_kw - target_kw
                         : kMiss;
    if (f <= 0.0) {
      if (!search.cap_met ||
          solution.outcome.objective < search.solution.outcome.objective) {
        search.solution = std::move(solution);
        search.multiplier = m;
        search.cap_met = true;
      }
      m_hi = m;
      f_hi = g_hi = f;
      if (moved < 0) g_lo *= 0.5;
      moved = -1;
    } else {
      if (m >= frugal) break;  // even the frugal limit misses
      slope = (f - f_lo) / (to_u(m) - to_u(m_lo));
      m_lo = m;
      f_lo = g_lo = f;
      if (moved > 0) g_hi *= 0.5;
      moved = 1;
    }
    if (!search.cap_met) {  // the first probe missed: is the target attainable?
      m = frugal;
      continue;
    }
    if (std::min(-f_hi, f_lo - f_hi) <= tol_kw) break;
    if (m_hi - m_lo <= 1e-4 * m_hi) break;
    const double u_lo = to_u(m_lo);
    const double width = to_u(m_hi) - u_lo;
    double u = g_lo < kMiss ? u_lo + width * g_lo / (g_lo - g_hi)
                            : u_lo + 0.5 * width;
    if (m_hi == frugal) {
      // Only the far frugal limit met the target: extrapolate the last two
      // misses, overshooting by half, growing the price 1.25x to 16x.
      const double step =
          slope < 0.0 && f_lo < kMiss
              ? std::clamp(-1.5 * f_lo / slope, std::log(1.25), std::log(16.0))
              : std::log(16.0);
      if (step < width) u = u_lo + step;
    }
    m = std::exp(std::clamp(u, u_lo + 1e-3 * width, u_lo + 0.999 * width)) -
        offset;
  }
  return search;
}

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
