#pragma once
// GSD: Gibbs Sampling-based Distributed optimization (Algorithm 2).
//
// The paper's distributed solver for P3: at each iteration a uniformly
// random server group explores a random alternative speed configuration; the
// optimal load distribution is computed for the explored configuration (the
// convex inner problem, solved by dual decomposition); and the *explored*
// configuration replaces the kept one with probability
//     u = exp(delta/g_e) / (exp(delta/g_e) + exp(delta/g_*)),
// the two-point Gibbs acceptance of Sec. 4.2 (computed here in a numerically
// safe logistic form).  Theorem 1: as the temperature delta -> infinity the
// chain's stationary distribution concentrates on the global optimum.
//
// As in the paper, infeasible explorations (line 2's capacity check fails)
// are skipped, and an adaptive schedule can raise delta over iterations so
// the chain first explores, then concentrates ("advisory approach", Sec. 4.2).
//
// Multi-chain mode: `chains > 1` runs that many *independent* Gibbs chains
// concurrently, chain c seeded with `seed ^ c` (so chain 0 reproduces the
// single-chain run bit-for-bit), and merges to the best feasible incumbent
// in deterministic chain order.  Results are a pure function of the config —
// identical at 1 thread and N threads.

#include <cstdint>
#include <optional>
#include <vector>

#include "opt/ladder_solver.hpp"
#include "opt/load_lp.hpp"
#include "util/rng.hpp"

namespace coca::opt {

struct GsdConfig {
  int iterations = 500;          ///< paper: 500 iterations for 200 groups
  double delta = 1e6;            ///< temperature (paper's Fig. 4 uses ~1e6)
  bool adaptive = false;         ///< grow delta over iterations
  double delta_initial = 1e4;    ///< starting delta when adaptive
  double delta_growth = 1.02;    ///< per-iteration multiplicative growth
  /// Granularity of active-count proposals: counts are multiples of
  /// ceil(servers/count_steps).  8 keeps the chain small but expressive.
  int count_steps = 8;
  std::uint64_t seed = 1;
  /// Record the kept objective after every iteration (Fig. 4 trajectories).
  bool record_trajectory = false;
  /// Independent Gibbs chains run concurrently; chain c uses seed ^ c.
  int chains = 1;
  /// Worker threads for multi-chain runs: 0 = one per chain (capped at the
  /// hardware), 1 = serial.  Has no effect on the merged result.
  int threads = 0;
};

struct GsdResult {
  SlotSolution solution;             ///< kept configuration at termination
  SlotSolution best;                 ///< best configuration ever visited
  std::vector<double> trajectory;    ///< kept objective per iteration
  int evaluations = 0;               ///< load-balance solves performed
  int accepted = 0;                  ///< exploration acceptances
  int chains_run = 1;                ///< chains merged into this result
  int winning_chain = 0;             ///< chain that supplied solution/best
  LoadLpStats lp_stats;              ///< load-LP engine counters (all chains)
};

class GsdSolver {
 public:
  explicit GsdSolver(GsdConfig config = {}) : config_(config) {}

  /// Run Algorithm 2 from an optional initial configuration (defaults to
  /// everything on at top speed).  Throws std::invalid_argument on an input
  /// validate() rejects.
  GsdResult solve(const dc::Fleet& fleet, const SlotInput& input,
                  const SlotWeights& weights,
                  std::optional<dc::Allocation> initial = std::nullopt) const;

  const GsdConfig& config() const { return config_; }

  /// The two-point Gibbs acceptance probability of line 4 (public for
  /// tests): u = exp(delta/g_e)/(exp(delta/g_e)+exp(delta/g_kept)).
  static double acceptance_probability(double delta, double explored_objective,
                                       double kept_objective);

 private:
  /// One serial Gibbs chain (Algorithm 2) with an explicit seed.
  GsdResult solve_chain(const dc::Fleet& fleet, const SlotInput& input,
                        const SlotWeights& weights,
                        const std::optional<dc::Allocation>& initial,
                        std::uint64_t seed) const;

  GsdConfig config_;
};

}  // namespace coca::opt
