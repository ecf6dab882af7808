#pragma once
// Optimal load distribution for a *fixed* capacity configuration — the convex
// inner problem of P3, solved by dual decomposition exactly as the paper
// prescribes (Sec. 4.2 line 3 / Appendix A: "the optimal load distribution
// can be easily derived in a distributed manner, e.g., by dual
// decomposition").
//
// With speeds and active counts fixed, facility power is affine in the group
// loads and the delay cost is convex, so strong duality holds.  Each server's
// best response to a broadcast workload price nu has the closed form
//     a(nu) = clamp( x - sqrt(V*beta*x / (nu - mu*c)), 0, gamma*x ),
// where mu is the effective brown-energy price and c the server's dynamic
// power slope; a scalar bisection on nu clears the market (sum of loads =
// lambda).  The [p - r]^+ kink is handled by the standard two-regime method:
// full price if the optimum draws grid power, zero price if on-site
// renewables cover everything, otherwise an outer bisection pins the optimum
// to the p = r boundary.

#include <algorithm>
#include <cmath>

#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Loads, active counts and lambdas at or below this are treated as zero by
/// every load-clearing solver (the reference, LoadLpContext and the ladder).
inline constexpr double kTiny = 1e-12;

/// Per-server cost of running at a level with rate s, facility static power
/// ps and facility dynamic slope c under per-server load a, at effective
/// energy price mu: mu * (ps + c*a) + V*beta * a/(s - a).
inline double server_cost(double mu, double v_beta, double ps, double c,
                          double s, double a) {
  return mu * (ps + c * a) + v_beta * a / (s - a);
}

/// The closed-form per-server best response to workload price nu (see the
/// file comment): zero below the activation threshold mu*c + V*beta/s,
/// otherwise s - sqrt(V*beta*s / (nu - mu*c)) clamped to [0, cap], where cap
/// is the utilization cap gamma*s.
inline double server_response(double nu, double mu, double v_beta, double c,
                              double s, double cap) {
  const double threshold = mu * c + v_beta / s;
  if (nu <= threshold) return 0.0;
  const double a = s - std::sqrt(v_beta * s / (nu - mu * c));
  return std::clamp(a, 0.0, cap);
}

/// Which branch of the [p - r]^+ kink the optimum landed on.
enum class PowerRegime {
  kGridDraw,   ///< p >= r: full effective price V*w + q
  kRenewable,  ///< p <= r at the delay-minimizing loads: electricity free
  kBoundary,   ///< optimum pinned at p == r
};

struct LoadBalanceResult {
  bool feasible = false;
  PowerRegime regime = PowerRegime::kGridDraw;
  double nu = 0.0;               ///< clearing workload price
  double effective_price = 0.0;  ///< mu actually used ($/kWh-weighted)
  SlotOutcome outcome;           ///< full cost breakdown at the solution
};

/// Distribute `input.lambda` optimally across the active servers of `alloc`
/// (levels and active counts are read, loads are overwritten).  Handles the
/// renewable kink.  Infeasible (capacity < lambda) results leave loads zero.
LoadBalanceResult balance_loads(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights);

/// Linearized variant used by provisioning sweeps: charges brown energy at
/// the *given* effective price `mu` for every kWh (no kink).  Writes loads;
/// returns the clearing price nu, or a negative value if infeasible.
double balance_loads_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights);

/// Facility power (kW) of an allocation under the weights' PUE.  Convenience
/// for regime checks.
double allocation_facility_kw(const dc::Fleet& fleet,
                              const dc::Allocation& alloc, double pue);

}  // namespace coca::opt
