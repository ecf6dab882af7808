#include "opt/load_balancer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/solvers.hpp"

namespace coca::opt {
namespace {

/// One active (group, level) slice seen by the dual decomposition: rate,
/// facility-referenced dynamic slope, active count.
struct ServerClass {
  std::size_t group = 0;
  double rate = 0.0;    ///< x (req/s per server)
  double slope = 0.0;   ///< pue * p_c(x)/x (kW per req/s)
  double active = 0.0;  ///< n > 0
  double cap_per = 0.0; ///< gamma * x
};

std::vector<ServerClass> active_classes(const dc::Fleet& fleet,
                                        const dc::Allocation& alloc,
                                        const SlotWeights& weights) {
  std::vector<ServerClass> classes;
  classes.reserve(alloc.size());
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].active <= kTiny) continue;
    const auto& spec = fleet.group(g).spec();
    ServerClass sc;
    sc.group = g;
    sc.rate = spec.level(alloc[g].level).service_rate;
    sc.slope = weights.pue * spec.dynamic_slope(alloc[g].level);
    sc.active = alloc[g].active;
    sc.cap_per = weights.gamma * sc.rate;
    classes.push_back(sc);
  }
  return classes;
}

/// Push loads so they sum exactly to lambda, respecting per-class caps.
/// The pre-existing mismatch is tiny (bisection tolerance), so a couple of
/// proportional passes suffice.
void settle_residual(std::vector<ServerClass>& classes,
                     std::vector<double>& loads, double lambda) {
  for (int pass = 0; pass < 4; ++pass) {
    const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
    double residual = lambda - total;
    if (std::abs(residual) <= 1e-9 * std::max(1.0, lambda)) return;
    if (residual > 0.0) {
      double headroom = 0.0;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        headroom += classes[i].active * classes[i].cap_per - loads[i];
      }
      if (headroom <= kTiny) return;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        const double room = classes[i].active * classes[i].cap_per - loads[i];
        loads[i] += residual * room / headroom;
      }
    } else {
      const double shrink = lambda / std::max(total, kTiny);
      for (auto& load : loads) load *= shrink;
    }
  }
}

/// Greedy fill used when the delay weight vanishes: cheapest energy first.
void greedy_fill(std::vector<ServerClass>& classes, std::vector<double>& loads,
                 double lambda, double mu) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mu * classes[a].slope < mu * classes[b].slope;
  });
  double remaining = lambda;
  for (std::size_t idx : order) {
    const double cap = classes[idx].active * classes[idx].cap_per;
    const double take = std::min(cap, remaining);
    loads[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

}  // namespace

double allocation_facility_kw(const dc::Fleet& fleet,
                              const dc::Allocation& alloc, double pue) {
  return pue * dc::it_power_kw(fleet, alloc);
}

double balance_loads_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights) {
  for (auto& a : alloc) a.load = 0.0;
  if (lambda <= kTiny) return 0.0;

  std::vector<ServerClass> classes = active_classes(fleet, alloc, weights);
  double capacity = 0.0;
  for (const auto& sc : classes) capacity += sc.active * sc.cap_per;
  if (capacity < lambda * (1.0 - 1e-9)) return -1.0;

  std::vector<double> loads(classes.size(), 0.0);
  const double v_beta = weights.V * weights.beta;
  double nu = 0.0;
  if (v_beta <= kTiny) {
    greedy_fill(classes, loads, lambda, mu);
  } else {
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (const auto& sc : classes) {
      lo = std::min(lo, mu * sc.slope + v_beta / sc.rate);
      const double full = mu * sc.slope +
                          v_beta / (sc.rate * (1.0 - weights.gamma) *
                                    (1.0 - weights.gamma));
      hi = std::max(hi, full);
    }
    hi = hi * (1.0 + 1e-9) + kTiny;
    auto supply_gap = [&](double price) {
      double total = 0.0;
      for (const auto& sc : classes) {
        total += sc.active * server_response(price, mu, v_beta, sc.slope,
                                              sc.rate, sc.cap_per);
      }
      return total - lambda;
    };
    util::BisectionOptions options;
    options.x_tol = std::max(1e-14, (hi - lo) * 1e-13);
    options.f_tol = 1e-9 * std::max(1.0, lambda);
    options.max_iterations = 200;
    const auto result = util::bisect(supply_gap, lo, hi, options);
    nu = result.x;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const auto& sc = classes[i];
      loads[i] = sc.active *
                 server_response(nu, mu, v_beta, sc.slope, sc.rate, sc.cap_per);
    }
  }
  settle_residual(classes, loads, lambda);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    alloc[classes[i].group].load = loads[i];
  }
  return nu;
}

LoadBalanceResult balance_loads(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights) {
  LoadBalanceResult result;
  const double mu_full = weights.brown_price(input.price);

  // Regime A: assume the optimum draws grid power (p >= r).
  double nu = balance_loads_linear(fleet, alloc, input.lambda, mu_full, weights);
  if (nu < 0.0) {
    result.outcome = evaluate(fleet, alloc, input, weights);
    result.outcome.infeasible_reason = "active capacity below lambda";
    return result;
  }
  const double power_a = allocation_facility_kw(fleet, alloc, weights.pue);
  if (power_a >= input.onsite_kw * (1.0 - 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kGridDraw;
    result.nu = nu;
    result.effective_price = mu_full;
    result.outcome = evaluate(fleet, alloc, input, weights);
    return result;
  }

  // Regime B: electricity free below r; only the facility-power price (the
  // peak-power extension's multiplier; 0 in the base model) and the delay
  // cost remain.
  const double mu_floor = weights.power_price;
  nu = balance_loads_linear(fleet, alloc, input.lambda, mu_floor, weights);
  const double power_b = allocation_facility_kw(fleet, alloc, weights.pue);
  if (power_b <= input.onsite_kw * (1.0 + 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kRenewable;
    result.nu = nu;
    result.effective_price = mu_floor;
    result.outcome = evaluate(fleet, alloc, input, weights);
    return result;
  }

  // Boundary: the optimum sits at p == r; find the effective price mu in
  // (mu_floor, mu_full) whose linear solution hits the on-site supply exactly.
  auto power_gap = [&](double mu) {
    balance_loads_linear(fleet, alloc, input.lambda, mu, weights);
    return allocation_facility_kw(fleet, alloc, weights.pue) - input.onsite_kw;
  };
  util::BisectionOptions options;
  options.x_tol = std::max(1e-12, mu_full * 1e-10);
  options.f_tol = 1e-6 * std::max(1.0, input.onsite_kw);
  options.max_iterations = 100;
  const auto boundary = util::bisect(power_gap, mu_floor, mu_full, options);
  nu = balance_loads_linear(fleet, alloc, input.lambda, boundary.x, weights);
  result.feasible = true;
  result.regime = PowerRegime::kBoundary;
  result.nu = nu;
  result.effective_price = boundary.x;
  result.outcome = evaluate(fleet, alloc, input, weights);
  return result;
}

}  // namespace coca::opt
