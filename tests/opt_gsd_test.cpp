// Tests for GSD (Algorithm 2): the acceptance rule, convergence toward the
// global optimum (Theorem 1's claim), temperature effects, initial-point
// insensitivity (Fig. 4(b)) and feasibility handling.

#include "opt/gsd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "opt/exhaustive_solver.hpp"
#include "util/rng.hpp"

namespace coca::opt {
namespace {

SlotWeights test_weights(double q = 0.0) {
  SlotWeights w;
  w.V = 1.0;
  w.q = q;
  w.beta = 0.01;
  w.gamma = 0.9;
  return w;
}

dc::Fleet small_fleet() {
  return dc::make_default_fleet({.total_servers = 6,
                                 .group_count = 2,
                                 .generations = 2,
                                 .speed_spread = 0.2,
                                 .power_spread = 0.15,
                                 .seed = 5});
}

TEST(GsdAcceptance, MatchesPaperFormula) {
  // u = exp(d/ge) / (exp(d/ge) + exp(d/gk)).
  const double delta = 3.0, ge = 1.5, gk = 2.0;
  const double expected =
      std::exp(delta / ge) / (std::exp(delta / ge) + std::exp(delta / gk));
  EXPECT_NEAR(GsdSolver::acceptance_probability(delta, ge, gk), expected, 1e-12);
}

TEST(GsdAcceptance, EqualObjectivesGiveHalf) {
  EXPECT_DOUBLE_EQ(GsdSolver::acceptance_probability(10.0, 2.0, 2.0), 0.5);
}

TEST(GsdAcceptance, BetterExplorationFavoredMoreAtHigherTemperature) {
  const double ge = 1.0, gk = 2.0;  // exploration better (smaller objective)
  const double low = GsdSolver::acceptance_probability(1.0, ge, gk);
  const double high = GsdSolver::acceptance_probability(100.0, ge, gk);
  EXPECT_GT(high, low);
  EXPECT_GT(low, 0.5);
  EXPECT_NEAR(high, 1.0, 1e-6);
}

TEST(GsdAcceptance, WorseExplorationStillPossible) {
  // The deliberate randomness of line 5: a worse exploration is accepted
  // with positive probability (that is what escapes local optima).
  const double u = GsdSolver::acceptance_probability(1.0, 3.0, 2.0);
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 0.5);
}

TEST(GsdAcceptance, InfiniteObjectivesHandled) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(GsdSolver::acceptance_probability(10.0, inf, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(GsdSolver::acceptance_probability(10.0, 2.0, inf), 1.0);
}

TEST(GsdAcceptance, ExtremeTemperatureDoesNotOverflow) {
  const double u = GsdSolver::acceptance_probability(1e308, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(u, 1.0);
  const double v = GsdSolver::acceptance_probability(1e308, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Gsd, ConvergesNearExhaustiveOptimumAtHighTemperature) {
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  const auto exact = ExhaustiveSolver().solve(fleet, input, w);

  GsdConfig config;
  config.iterations = 1'500;
  config.delta = 1e4;
  config.seed = 3;
  const auto result = GsdSolver(config).solve(fleet, input, w);
  ASSERT_TRUE(result.best.feasible);
  EXPECT_LE(result.best.outcome.objective,
            exact.outcome.objective * 1.02 + 1e-9);
  EXPECT_GE(result.best.outcome.objective,
            exact.outcome.objective * (1.0 - 1e-9));
}

TEST(Gsd, HigherTemperatureFindsBetterSolutions) {
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  double hot_obj = 0.0, cold_obj = 0.0;
  // Average over seeds: the chain is stochastic.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GsdConfig cold;
    cold.iterations = 300;
    cold.delta = 1e-3;  // near-uniform random walk
    cold.seed = seed;
    GsdConfig hot = cold;
    hot.delta = 1e4;
    cold_obj += GsdSolver(cold).solve(fleet, input, w).solution.outcome.objective;
    hot_obj += GsdSolver(hot).solve(fleet, input, w).solution.outcome.objective;
  }
  EXPECT_LT(hot_obj, cold_obj);
}

TEST(Gsd, InsensitiveToInitialPoint) {
  // Fig. 4(b): different initial points converge to (almost) the same cost.
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  GsdConfig config;
  config.iterations = 1'200;
  config.delta = 1e4;
  config.seed = 11;

  const auto from_default = GsdSolver(config).solve(fleet, input, w);
  dc::Allocation half_on(fleet.group_count());
  for (std::size_t g = 0; g < half_on.size(); ++g) {
    half_on[g].level = 0;
    half_on[g].active = g == 0 ? 3.0 : 0.0;
  }
  const auto from_half = GsdSolver(config).solve(fleet, input, w, half_on);
  EXPECT_NEAR(from_default.best.outcome.objective,
              from_half.best.outcome.objective,
              0.05 * from_default.best.outcome.objective);
}

TEST(Gsd, TrajectoryRecordedWhenRequested) {
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 50;
  config.record_trajectory = true;
  const auto result =
      GsdSolver(config).solve(fleet, {10.0, 0.0, 0.06}, test_weights());
  EXPECT_EQ(result.trajectory.size(), 50u);
  EXPECT_EQ(result.evaluations > 0, true);
}

TEST(Gsd, BestNeverWorseThanFinalKept) {
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 400;
  config.delta = 50.0;
  config.seed = 9;
  const auto result =
      GsdSolver(config).solve(fleet, {25.0, 0.0, 0.06}, test_weights());
  EXPECT_LE(result.best.outcome.objective,
            result.solution.outcome.objective + 1e-9);
}

TEST(Gsd, DeterministicPerSeed) {
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 200;
  config.seed = 42;
  const auto a = GsdSolver(config).solve(fleet, {15.0, 0.0, 0.06}, test_weights());
  const auto b = GsdSolver(config).solve(fleet, {15.0, 0.0, 0.06}, test_weights());
  EXPECT_DOUBLE_EQ(a.solution.outcome.objective, b.solution.outcome.objective);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Gsd, AdaptiveTemperatureImprovesOverColdStart) {
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  GsdConfig adaptive;
  adaptive.iterations = 800;
  adaptive.adaptive = true;
  adaptive.delta_initial = 1.0;
  adaptive.delta_growth = 1.02;
  adaptive.seed = 2;
  const auto result = GsdSolver(adaptive).solve(fleet, input, w);
  const auto exact = ExhaustiveSolver().solve(fleet, input, w);
  EXPECT_LE(result.best.outcome.objective, exact.outcome.objective * 1.05);
}

TEST(GsdAcceptance, RandomizedPropertySweep) {
  // Fuzzed invariants over the whole positive domain:
  //   (a) u is always a probability in [0, 1];
  //   (b) for fixed kept objective and temperature, u is non-increasing in
  //       the explored objective (better explorations are never *less*
  //       likely to be accepted);
  //   (c) the non-finite guards return exactly 0 (bad exploration) and
  //       exactly 1 (bad kept state).
  util::Rng rng(2024);
  for (int trial = 0; trial < 2'000; ++trial) {
    const double delta = std::pow(10.0, rng.uniform(-3.0, 8.0));
    const double kept = std::pow(10.0, rng.uniform(-6.0, 9.0));
    const double lo = std::pow(10.0, rng.uniform(-6.0, 9.0));
    const double hi = lo * (1.0 + rng.uniform(0.0, 4.0));

    const double u_lo = GsdSolver::acceptance_probability(delta, lo, kept);
    const double u_hi = GsdSolver::acceptance_probability(delta, hi, kept);
    ASSERT_GE(u_lo, 0.0);
    ASSERT_LE(u_lo, 1.0);
    ASSERT_GE(u_hi, 0.0);
    ASSERT_LE(u_hi, 1.0);
    // Monotonicity: lo <= hi (smaller = better objective) => u_lo >= u_hi.
    ASSERT_GE(u_lo, u_hi) << "delta=" << delta << " kept=" << kept
                          << " lo=" << lo << " hi=" << hi;
  }
  // The guards of gsd.cpp lines 14-15: exactly 0 / exactly 1, never NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double delta : {1e-3, 1.0, 1e6, 1e300}) {
    EXPECT_EQ(GsdSolver::acceptance_probability(delta, inf, 2.0), 0.0);
    EXPECT_EQ(GsdSolver::acceptance_probability(delta, nan, 2.0), 0.0);
    EXPECT_EQ(GsdSolver::acceptance_probability(delta, 2.0, inf), 1.0);
    EXPECT_EQ(GsdSolver::acceptance_probability(delta, 2.0, nan), 1.0);
    EXPECT_EQ(GsdSolver::acceptance_probability(delta, inf, inf), 0.0);
  }
}

TEST(GsdMultiChain, MergedBestNeverWorseThanChainZero) {
  // Chain 0 of a multi-chain run replays the single-chain stream (seed ^ 0),
  // and the merge takes the best feasible incumbent over all chains — so the
  // merged best can never be worse than the single-chain best.
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    GsdConfig single;
    single.iterations = 250;
    single.delta = 1e4;
    single.seed = seed;
    GsdConfig multi = single;
    multi.chains = 4;
    const auto one = GsdSolver(single).solve(fleet, input, w);
    const auto merged = GsdSolver(multi).solve(fleet, input, w);
    EXPECT_EQ(merged.chains_run, 4);
    EXPECT_LE(merged.best.outcome.objective,
              one.best.outcome.objective + 1e-12);
  }
}

TEST(GsdMultiChain, EvaluationBudgetScalesWithChains) {
  const auto fleet = small_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  const auto w = test_weights();
  GsdConfig config;
  config.iterations = 100;
  config.chains = 3;
  config.seed = 5;
  const auto result = GsdSolver(config).solve(fleet, input, w);
  // Each chain performs at most iterations+1 evaluations (initial + one per
  // feasible exploration) and at least the initial one.
  EXPECT_GE(result.evaluations, 3);
  EXPECT_LE(result.evaluations, 3 * (config.iterations + 1));
  EXPECT_GE(result.winning_chain, 0);
  EXPECT_LT(result.winning_chain, 3);
}

TEST(GsdAcceptance, ZeroObjectivesGiveHalf) {
  // lambda(t) = 0 slots produce exactly-zero objectives (all-off carries the
  // workload for free); the 1e-300 guard must turn 0-vs-0 into a coin flip
  // rather than a 0/0 NaN.
  const double u = GsdSolver::acceptance_probability(10.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(u, 0.5);
  EXPECT_FALSE(std::isnan(GsdSolver::acceptance_probability(10.0, 0.0, 5.0)));
  EXPECT_FALSE(std::isnan(GsdSolver::acceptance_probability(10.0, 5.0, 0.0)));
}

TEST(Gsd, ZeroWorkloadSlotIsFeasibleAndFree) {
  // Boundary audit for lambda(t) = 0: the capacity gate
  // explored_capacity >= lambda * (1 - 1e-12) admits every vector, including
  // all-off.  The solve must stay feasible, spend nothing, and never emit a
  // NaN objective — this is every night-valley slot of a trace-driven year.
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 400;
  config.seed = 7;
  const auto result =
      GsdSolver(config).solve(fleet, {0.0, 0.0, 0.06}, test_weights());
  ASSERT_TRUE(result.best.feasible);
  EXPECT_TRUE(std::isfinite(result.best.outcome.objective));
  // All-off is optimal: zero facility power, zero brown, zero cost.
  EXPECT_DOUBLE_EQ(result.best.outcome.objective, 0.0);
  EXPECT_DOUBLE_EQ(result.best.outcome.total_cost, 0.0);
  EXPECT_DOUBLE_EQ(result.best.outcome.brown_kwh, 0.0);
  // And the returned kept state is billed coherently too.
  EXPECT_TRUE(std::isfinite(result.solution.outcome.objective));
}

TEST(Gsd, ZeroWorkloadUnderDeficitPressureStaysClean) {
  // q > 0 multiplies brown energy; with lambda = 0 and no workload the
  // optimum is still all-off with objective 0 (no brown to penalize).
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 400;
  config.seed = 11;
  const auto result =
      GsdSolver(config).solve(fleet, {0.0, 0.0, 0.06}, test_weights(500.0));
  ASSERT_TRUE(result.best.feasible);
  EXPECT_DOUBLE_EQ(result.best.outcome.objective, 0.0);
  EXPECT_DOUBLE_EQ(result.best.outcome.brown_kwh, 0.0);
}

TEST(Gsd, RenewableSurplusSlotHasZeroBrownEnergy) {
  // r(t) > p for every reachable configuration: brown = [p - r]^+ = 0, so
  // the q*y term vanishes and the objective reduces to V*g.  The solver
  // must keep the accounting exact (no negative brown, no NaN).
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 600;
  config.seed = 3;
  const SlotInput surplus{5.0, 1e6, 0.06};  // 1 GW on-site for a 6-server fleet
  const auto result =
      GsdSolver(config).solve(fleet, surplus, test_weights(50.0));
  ASSERT_TRUE(result.best.feasible);
  EXPECT_DOUBLE_EQ(result.best.outcome.brown_kwh, 0.0);
  EXPECT_DOUBLE_EQ(result.best.outcome.electricity_cost, 0.0);
  EXPECT_GE(result.best.outcome.objective, 0.0);
  EXPECT_TRUE(std::isfinite(result.best.outcome.objective));
}

TEST(Gsd, RejectsNonFiniteOrNegativeSlotInput) {
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 10;
  const GsdSolver solver(config);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const SlotInput bad[] = {{5.0, nan, 0.06},
                           {5.0, 0.0, nan},
                           {-5.0, 0.0, 0.06},
                           {5.0, -100.0, 0.06}};
  for (const auto& input : bad) {
    EXPECT_THROW(solver.solve(fleet, input, test_weights()),
                 std::invalid_argument)
        << "lambda " << input.lambda << " onsite " << input.onsite_kw
        << " price " << input.price;
  }
}

TEST(Gsd, HandlesDeficitPressure) {
  // With a large queue, GSD should find lower-energy configurations.
  const auto fleet = small_fleet();
  GsdConfig config;
  config.iterations = 1'000;
  config.delta = 1e4;
  config.seed = 13;
  const auto relaxed =
      GsdSolver(config).solve(fleet, {20.0, 0.0, 0.06}, test_weights(0.0));
  const auto pressured =
      GsdSolver(config).solve(fleet, {20.0, 0.0, 0.06}, test_weights(50.0));
  ASSERT_TRUE(relaxed.best.feasible);
  ASSERT_TRUE(pressured.best.feasible);
  EXPECT_LE(pressured.best.outcome.brown_kwh,
            relaxed.best.outcome.brown_kwh * (1.0 + 1e-9));
}

}  // namespace
}  // namespace coca::opt
