#include "opt/ladder_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"

namespace coca::opt {
namespace {

struct GroupLevelView {
  double rate = 0.0;        ///< s_k
  double slope = 0.0;       ///< facility dynamic slope pue*p_c/s
  double static_kw = 0.0;   ///< facility static power pue*p_s
};

struct GroupView {
  std::size_t index = 0;
  double servers = 0.0;
  std::vector<GroupLevelView> levels;

  /// Best (level, per-server load, profit) at workload price nu.
  struct Response {
    std::size_t level = 0;
    double load = 0.0;
    double profit = 0.0;  ///< per-server profit nu*a - phi(a)
  };
  Response best_response(double nu, double mu, double v_beta,
                         double gamma) const {
    Response best;
    best.profit = 0.0;
    bool found = false;
    for (std::size_t k = 0; k < levels.size(); ++k) {
      const auto& lv = levels[k];
      const double a =
          server_response(nu, mu, v_beta, lv.slope, lv.rate, gamma * lv.rate);
      if (a <= kTiny) continue;
      const double profit =
          nu * a - server_cost(mu, v_beta, lv.static_kw, lv.slope, lv.rate, a);
      if (!found || profit > best.profit) {
        best = {k, a, profit};
        found = true;
      }
    }
    if (!found || best.profit <= 0.0) return {0, 0.0, 0.0};
    return best;
  }

  /// Price at which the group first becomes profitable to activate:
  /// min over levels of the average cost at the jointly optimal load a*.
  double break_even(double mu, double v_beta, double gamma) const {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& lv : levels) {
      const double theta = std::sqrt(mu * lv.static_kw / v_beta);
      double a = lv.rate * theta / (1.0 + theta);
      a = std::clamp(a, 1e-9 * lv.rate, gamma * lv.rate);
      best = std::min(best, server_cost(mu, v_beta, lv.static_kw, lv.slope,
                                        lv.rate, a) /
                                a);
    }
    return best;
  }
};

std::vector<GroupView> make_views(const dc::Fleet& fleet, double pue) {
  std::vector<GroupView> views(fleet.group_count());
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    views[g].index = g;
    views[g].servers = static_cast<double>(group.server_count());
    views[g].levels.reserve(group.spec().level_count());
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      const auto& lv = group.spec().level(k);
      views[g].levels.push_back({lv.service_rate,
                                 pue * group.spec().dynamic_slope(k),
                                 pue * group.spec().static_power_kw()});
    }
  }
  return views;
}

/// Pure energy-minimizing provisioning for the degenerate beta == 0 case:
/// activate the most efficient (group, level) slices in merit order at the
/// utilization cap.
dc::Allocation energy_greedy(const dc::Fleet& fleet, double lambda, double mu,
                             const SlotWeights& weights) {
  struct Slice {
    std::size_t group;
    std::size_t level;
    double unit_cost;
    double capacity;
  };
  std::vector<Slice> slices;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      const auto& lv = group.spec().level(k);
      const double a = weights.gamma * lv.service_rate;
      const double cost =
          mu * weights.pue *
          (group.spec().static_power_kw() + group.spec().dynamic_slope(k) * a) /
          a;
      slices.push_back({g, k, cost,
                        static_cast<double>(group.server_count()) * a});
    }
  }
  std::sort(slices.begin(), slices.end(),
            [](const Slice& a, const Slice& b) { return a.unit_cost < b.unit_cost; });
  dc::Allocation alloc(fleet.group_count());
  std::vector<bool> used(fleet.group_count(), false);
  double remaining = lambda;
  for (const auto& s : slices) {
    if (remaining <= 0.0) break;
    if (used[s.group]) continue;  // one level per group
    used[s.group] = true;
    const double take = std::min(s.capacity, remaining);
    const double per = weights.gamma *
                       fleet.group(s.group).spec().level(s.level).service_rate;
    alloc[s.group].level = s.level;
    alloc[s.group].active = std::ceil(take / per - 1e-9);
    alloc[s.group].load = take;
    remaining -= take;
  }
  return alloc;
}

}  // namespace

SlotSolution LadderSolver::solve_linear(const dc::Fleet& fleet,
                                        const SlotInput& input,
                                        const SlotWeights& weights, double mu,
                                        LoadLpContext& lp) const {
  SlotSolution solution;
  const double lambda = input.lambda;
  const double v_beta = weights.V * weights.beta;

  if (mu <= kTiny) {
    // Free energy: delay-only objective; all servers on at top speed.
    solution.alloc = all_on_max(fleet, lambda, weights.gamma);
    lp.solve_linear(solution.alloc, lambda, 0.0, weights);
  } else if (v_beta <= kTiny) {
    solution.alloc = energy_greedy(fleet, lambda, mu, weights);
    lp.solve_linear(solution.alloc, lambda, mu, weights);
  } else {
    const auto views = make_views(fleet, weights.pue);
    // Market clearing: find the workload price at which the fleet's supply
    // meets lambda.
    auto supply = [&](double nu) {
      double total = 0.0;
      for (const auto& view : views) {
        const auto r = view.best_response(nu, mu, v_beta, weights.gamma);
        total += view.servers * r.load;
      }
      return total;
    };
    // Upper bracket: a price at which *every* group is profitable at the
    // utilization cap, so supply(hi) equals the full gamma-capped capacity.
    // That requires hi to exceed both the marginal cost at a = gamma*s (so
    // the response saturates) and the average cost there (so profit > 0).
    double hi = 0.0;
    for (const auto& view : views) {
      for (const auto& lv : view.levels) {
        const double a_cap = weights.gamma * lv.rate;
        const double marginal =
            mu * lv.slope + v_beta * lv.rate /
                                ((lv.rate - a_cap) * (lv.rate - a_cap));
        const double average =
            server_cost(mu, v_beta, lv.static_kw, lv.slope, lv.rate, a_cap) /
            a_cap;
        hi = std::max({hi, marginal, average});
      }
    }
    hi = hi * (1.0 + 1e-6) + kTiny;
    // supply() is monotone but has activation jumps (groups switch on in a
    // bang-bang fashion), so we keep the bracket's *upper* side: the smallest
    // price found with supply >= lambda.  The trimming below then sizes the
    // marginal group down to close any oversupply.
    double lo_price = 0.0;
    double nu_star = hi;
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo_price + nu_star);
      const double s = supply(mid);
      if (s >= lambda) {
        nu_star = mid;
        if (s <= lambda * (1.0 + 1e-9)) break;
      } else {
        lo_price = mid;
      }
      if (nu_star - lo_price <= 1e-12 * hi) break;
    }

    // Build the bang-bang activation at nu*, then trim oversupply starting
    // from the least efficient (highest break-even) active groups so the
    // marginal group is partially sized.
    struct Active {
      std::size_t group;
      std::size_t level;
      double per_load;
      double supply;
      double break_even;
    };
    std::vector<Active> actives;
    for (const auto& view : views) {
      const auto r = view.best_response(nu_star, mu, v_beta, weights.gamma);
      if (r.load <= kTiny) continue;
      actives.push_back({view.index, r.level, r.load, view.servers * r.load,
                         view.break_even(mu, v_beta, weights.gamma)});
    }
    double total = 0.0;
    for (const auto& a : actives) total += a.supply;
    std::sort(actives.begin(), actives.end(), [](const Active& a, const Active& b) {
      return a.break_even > b.break_even;
    });
    solution.alloc = dc::Allocation(fleet.group_count());
    for (auto& a : actives) {
      double servers = static_cast<double>(fleet.group(a.group).server_count());
      if (total - a.supply >= lambda) {
        total -= a.supply;  // drop entirely
        continue;
      }
      if (total > lambda) {
        // Marginal group: size it to close the gap.
        const double needed = a.supply - (total - lambda);
        servers = std::clamp(needed / a.per_load, 0.0, servers);
        total = lambda;
      }
      servers = std::ceil(servers - 1e-9);
      solution.alloc[a.group].level = a.level;
      solution.alloc[a.group].active = servers;
    }
    const double nu = lp.solve_linear(solution.alloc, lambda, mu, weights);
    if (nu < 0.0) {
      // Rounding starved capacity (can only happen in tiny fleets): fall
      // back to the always-feasible configuration.
      solution.alloc = all_on_max(fleet, lambda, weights.gamma);
      lp.solve_linear(solution.alloc, lambda, mu, weights);
    }
  }

  solution.outcome = evaluate(fleet, solution.alloc, input, weights);
  solution.feasible = solution.outcome.feasible;
  solution.effective_price = mu;
  return solution;
}

util::MultiplierSearch LadderSolver::clear_to_power(
    const dc::Fleet& fleet, const SlotInput& input, const SlotWeights& weights,
    double mu0, double target_kw, double power_at_zero, double frugal,
    double hint, LoadLpContext& lp, SlotSolution& kept) const {
  SlotSolution probe;
  return util::smallest_multiplier(
      [&](double m) {
        probe = solve_linear(fleet, input, weights, mu0 + m, lp);
        return util::MultiplierProbe{
            probe.feasible ? probe.outcome.facility_power_kw
                           : std::numeric_limits<double>::infinity(),
            probe.outcome.objective};
      },
      [&] { kept = std::move(probe); }, target_kw, power_at_zero, frugal,
      hint);
}

// OBS-EXEMPT(callers open the "ladder_solve" span for this stage)
// Opening one here too would change the pinned span goldens.
SlotSolution LadderSolver::solve(const dc::Fleet& fleet, const SlotInput& input,
                                 const SlotWeights& weights,
                                 LoadLpContext* lp) const {
  validate(input);
  obs::count("ladder.solves");
  std::optional<LoadLpContext> local;
  if (lp == nullptr) lp = &local.emplace(fleet);
  SlotSolution solution;
  if (input.lambda <= kTiny) {
    solution.alloc = all_off(fleet);
    solution.outcome = evaluate(fleet, solution.alloc, input, weights);
    solution.feasible = true;
    solution.regime = PowerRegime::kRenewable;
    return solution;
  }
  if (!slot_feasible(fleet, input.lambda, weights.gamma)) {
    solution.alloc = all_off(fleet);
    solution.outcome.infeasible_reason =
        "lambda exceeds the gamma-capped fleet capacity";
    return solution;
  }

  const double mu_full = weights.brown_price(input.price);

  // Regime A: optimum draws grid power.
  solution = solve_linear(fleet, input, weights, mu_full, *lp);
  solution.regime = PowerRegime::kGridDraw;
  if (solution.outcome.facility_power_kw < input.onsite_kw * (1.0 - 1e-9)) {
    // Regime B: free energy below the on-site supply (only the facility-
    // power price — the peak-power extension's multiplier — remains).
    const double mu_floor = weights.power_price;
    SlotSolution delay_min = solve_linear(fleet, input, weights, mu_floor, *lp);
    if (delay_min.outcome.facility_power_kw <=
        input.onsite_kw * (1.0 + 1e-9)) {
      delay_min.regime = PowerRegime::kRenewable;
      solution = delay_min;
    } else {
      // Boundary: pin facility power to the on-site supply.  Regime A's
      // clearing at mu_full meets it, so the search is bracketed there.
      const double p_free = delay_min.outcome.facility_power_kw;
      const double p_grid = solution.outcome.facility_power_kw;
      const double frugal = mu_full - mu_floor;
      SlotSolution pinned;
      const auto boundary = clear_to_power(
          fleet, input, weights, mu_floor, input.onsite_kw * (1.0 + 1e-9),
          p_free, frugal,
          frugal * (p_free - input.onsite_kw) / (p_free - p_grid), *lp,
          pinned);
      pinned.regime = PowerRegime::kBoundary;
      // Keep whichever of the three candidates scores best on the true
      // objective (the kinked objective is what evaluate() reports).
      if (boundary.met &&
          pinned.outcome.objective < solution.outcome.objective) {
        solution = pinned;
      }
      if (delay_min.outcome.objective < solution.outcome.objective) {
        delay_min.regime = PowerRegime::kRenewable;
        solution = delay_min;
      }
    }
  }

  for (int pass = 0; pass < config_.polish_passes; ++pass) {
    if (!polish(fleet, input, weights, solution, *lp)) break;
  }
  return solution;
}

bool LadderSolver::polish(const dc::Fleet& fleet, const SlotInput& input,
                          const SlotWeights& weights, SlotSolution& solution,
                          LoadLpContext& lp) const {
  bool improved = false;
  dc::Allocation candidate;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    const double servers = static_cast<double>(group.server_count());
    const double step =
        std::max(1.0, std::floor(servers * config_.polish_count_step));
    const double current_active = solution.alloc[g].active;
    const double counts[] = {current_active - step, current_active + step, 0.0,
                             servers};
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      for (double count : counts) {
        count = std::round(std::clamp(count, 0.0, servers));
        // Each candidate differs from the solution only in group g, whose
        // level and count it sets; solve() overwrites every load.
        candidate = solution.alloc;
        candidate[g].level = k;
        candidate[g].active = count;
        // The current point is solved too, before it is skipped: warm
        // solves depend on the context's solve history.
        const LoadBalanceResult balanced = lp.solve(candidate, input, weights);
        if (k == solution.alloc[g].level && count == current_active) continue;
        if (balanced.feasible &&
            balanced.outcome.objective <
                solution.outcome.objective * (1.0 - 1e-10)) {
          solution.alloc = candidate;
          solution.outcome = balanced.outcome;
          solution.regime = balanced.regime;
          solution.effective_price = balanced.effective_price;
          improved = true;
        }
      }
    }
  }
  return improved;
}

}  // namespace coca::opt
