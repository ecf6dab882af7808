#pragma once
// Fast near-exact solver for the per-slot problem P3 (capacity provisioning
// + load distribution), based on the continuous-server-count relaxation.
//
// For a group at speed level k facing effective brown-energy price mu, the
// jointly optimal per-server operating load has the closed form
//     a*(k) = clamp( s_k * theta/(1+theta), gamma*s_k ),
//     theta = sqrt( mu * pue * p_s / (V*beta) ),
// at which the group serves workload at a *constant* marginal cost per unit
// until its server count saturates.  Parameterizing every group's best
// response by a common workload price nu turns provisioning into a scalar
// market-clearing problem: a bisection on nu activates groups in merit order
// and sizes the marginal group.  At the renewable kink the facility power is
// pinned to the on-site supply by util::smallest_multiplier over mu, the
// search every per-slot cap uses.  With ~1000 servers per
// group the integrality gap of the relaxation is negligible; an optional
// local-search polish tightens the remaining slack.
//
// The ladder solver is the default per-slot engine for year-long simulations;
// GSD (the paper's distributed sampler) and the exhaustive solver validate it.

#include <optional>

#include "opt/load_balancer.hpp"
#include "opt/load_lp.hpp"
#include "opt/slot_problem.hpp"
#include "util/solvers.hpp"

namespace coca::opt {

struct LadderConfig {
  /// Local-search passes over (group, level, count-step) moves; 0 disables.
  int polish_passes = 0;
  /// Count step for polish moves, as a fraction of the group size.
  double polish_count_step = 0.05;
};

struct SlotSolution {
  dc::Allocation alloc;
  SlotOutcome outcome;
  PowerRegime regime = PowerRegime::kGridDraw;
  double effective_price = 0.0;  ///< mu at the solution
  bool feasible = false;
};

class LadderSolver {
 public:
  explicit LadderSolver(LadderConfig config = {}) : config_(config) {}

  /// Solve P3 for one slot.  Returns an infeasible solution (objective +inf)
  /// if even the full fleet at top speed cannot serve lambda under gamma.
  /// Throws std::invalid_argument on an input validate() rejects.
  /// An optional LoadLpContext (built for the *same* fleet) carries the
  /// load-LP caches across repeated solves — the capped solvers reuse one
  /// across their multiplier searches; when omitted a solve-local context
  /// is used.  Without polish passes results are bit-identical either way:
  /// every clearing goes through the context's canonical solve_linear.  The
  /// polish grid goes through solve(), whose warm candidates agree with the
  /// reference to the documented epsilon (opt/load_lp.hpp).
  SlotSolution solve(const dc::Fleet& fleet, const SlotInput& input,
                     const SlotWeights& weights,
                     LoadLpContext* lp = nullptr) const;

  /// Provision + balance with a fixed linear energy price mu (no kink),
  /// scored at `weights`: the capped solvers' probe.  Expects an input
  /// solve() accepts, with lambda > 0.
  SlotSolution solve_linear(const dc::Fleet& fleet, const SlotInput& input,
                            const SlotWeights& weights, double mu,
                            LoadLpContext& lp) const;

  /// The smallest m in (0, frugal] whose clearing solve_linear(mu0 + m)
  /// draws at most target_kw of facility power (util::smallest_multiplier,
  /// given the power at m = 0); `kept` receives the lowest-objective
  /// clearing that met the target.
  util::MultiplierSearch clear_to_power(const dc::Fleet& fleet,
                                        const SlotInput& input,
                                        const SlotWeights& weights, double mu0,
                                        double target_kw, double power_at_zero,
                                        double frugal, double hint,
                                        LoadLpContext& lp,
                                        SlotSolution& kept) const;

 private:
  /// One local-search polish pass over (group, level, count-step) moves,
  /// each solved through the context and adopted when it improves the
  /// objective; returns true if it improved the solution.
  bool polish(const dc::Fleet& fleet, const SlotInput& input,
              const SlotWeights& weights, SlotSolution& solution,
              LoadLpContext& lp) const;

  LadderConfig config_;
};

}  // namespace coca::opt
