// Tests for the budget-capped slot solver (PerfectHP's inner problem).

#include "opt/capped_slot_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace coca::opt {
namespace {

SlotWeights test_weights() {
  SlotWeights w;
  w.beta = 0.005;
  w.gamma = 0.9;
  return w;
}

dc::Fleet fleet() {
  return dc::make_default_fleet({.total_servers = 20'000,
                                 .group_count = 8,
                                 .generations = 4,
                                 .speed_spread = 0.18,
                                 .power_spread = 0.12,
                                 .seed = 1});
}

TEST(CappedSolver, LooseCapLeavesUnconstrainedOptimum) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  const auto capped = CappedSlotSolver().solve(
      f, input, test_weights(), unconstrained.outcome.brown_kwh * 2.0);
  EXPECT_TRUE(capped.cap_met);
  EXPECT_FALSE(capped.cap_dropped);
  EXPECT_DOUBLE_EQ(capped.multiplier, 0.0);
  EXPECT_NEAR(capped.solution.outcome.total_cost,
              unconstrained.outcome.total_cost, 1e-9);
}

TEST(CappedSolver, BindingCapIsRespected) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  const double cap = unconstrained.outcome.brown_kwh * 0.8;
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.brown_kwh, cap * (1.0 + 1e-6));
  EXPECT_GT(capped.multiplier, 0.0);
  // Cost must rise when the cap binds.
  EXPECT_GE(capped.solution.outcome.total_cost,
            unconstrained.outcome.total_cost);
}

TEST(CappedSolver, TighterCapsCostMore) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = LadderSolver().solve(f, input, test_weights());
  double prev_cost = base.outcome.total_cost;
  for (double fraction : {0.95, 0.9, 0.85}) {
    const auto capped = CappedSlotSolver().solve(
        f, input, test_weights(), base.outcome.brown_kwh * fraction);
    ASSERT_TRUE(capped.cap_met) << fraction;
    EXPECT_GE(capped.solution.outcome.total_cost, prev_cost * (1.0 - 1e-6));
    prev_cost = capped.solution.outcome.total_cost;
  }
}

TEST(CappedSolver, ImpossibleCapIsDropped) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  // Serving 50 K req/s physically needs power; a near-zero cap is hopeless.
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(), 1.0);
  EXPECT_TRUE(capped.cap_dropped);
  EXPECT_FALSE(capped.cap_met);
  // The fallback is the unconstrained cost minimizer (the paper's rule).
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  EXPECT_NEAR(capped.solution.outcome.total_cost,
              unconstrained.outcome.total_cost, 1e-9);
}

TEST(CappedSolver, OnsiteRenewablesRelaxTheCap) {
  const auto f = fleet();
  const SlotInput no_sun{50'000.0, 0.0, 0.06};
  const SlotInput sunny{50'000.0, 3'000.0, 0.06};
  const auto base = LadderSolver().solve(f, no_sun, test_weights());
  const double cap = base.outcome.brown_kwh * 0.8;
  const auto dark = CappedSlotSolver().solve(f, no_sun, test_weights(), cap);
  const auto bright = CappedSlotSolver().solve(f, sunny, test_weights(), cap);
  ASSERT_TRUE(dark.cap_met);
  ASSERT_TRUE(bright.cap_met);
  // With on-site help, meeting the same brown cap costs less.
  EXPECT_LE(bright.solution.outcome.total_cost,
            dark.solution.outcome.total_cost + 1e-9);
}

TEST(CappedSolver, ReportedOutcomeUsesTrueCostWeights) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = LadderSolver().solve(f, input, test_weights());
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(),
                                               base.outcome.brown_kwh * 0.85);
  // objective at (V=1, q=0) equals the plain cost.
  EXPECT_NEAR(capped.solution.outcome.objective,
              capped.solution.outcome.total_cost, 1e-9);
}

// Binding brown caps at 0.5-0.99 of the unconstrained brown energy, across
// workloads and on-site supplies.  Oracle: full ladder solves at q = m on a
// geometric grid, plus points just below the returned multiplier.  Every
// grid multiplier that meets the cap bounds the returned multiplier from
// above (within 1%), and every oracle point that meets the cap bounds the
// returned cost.  A search that lands on the infeasible side of an
// activation jump and falls back to the frugal probe (m ~ 1e7) fails both.
TEST(CappedSolver, BindingCapsReturnTheSmallestMeetingMultiplier) {
  const auto f = fleet();
  const SlotWeights w = test_weights();
  const LadderSolver ladder;
  int binding = 0;
  for (double lambda : {30'000.0, 50'000.0, 70'000.0}) {
    for (double onsite : {0.0, 1'500.0, 4'000.0}) {
      const SlotInput input{lambda, onsite, 0.06};
      const auto base = ladder.solve(f, input, w);
      if (base.outcome.brown_kwh <= 0.0) continue;
      for (double fraction : {0.5, 0.7, 0.9, 0.99}) {
        const double cap = base.outcome.brown_kwh * fraction;
        const auto capped = CappedSlotSolver().solve(f, input, w, cap);
        if (capped.cap_met) {
          EXPECT_LE(capped.solution.outcome.brown_kwh, cap * (1.0 + 1e-9))
              << lambda << " " << onsite << " " << fraction;
        }
        std::vector<std::pair<double, bool>> oracle;  // (m, on the grid)
        for (double m = 1e-3; m <= 1e3; m *= 1.5) oracle.push_back({m, true});
        for (double below : {1e-3, 3e-3, 1e-2, 3e-2}) {
          oracle.push_back({capped.multiplier * (1.0 - below), false});
        }
        for (const auto& [m, on_grid] : oracle) {
          SlotWeights probe = w;
          probe.q = m;
          const auto at_m = ladder.solve(f, input, probe);
          if (at_m.outcome.brown_kwh > cap * (1.0 + 1e-9)) continue;
          ++binding;
          EXPECT_TRUE(capped.cap_met) << lambda << " " << onsite;
          if (on_grid) {
            EXPECT_LE(capped.multiplier, m * 1.01)
                << lambda << " " << onsite << " " << fraction;
          }
          EXPECT_LE(capped.solution.outcome.total_cost,
                    at_m.outcome.total_cost * (1.0 + 1e-6))
              << lambda << " " << onsite << " " << fraction << " m=" << m;
        }
      }
    }
  }
  EXPECT_GT(binding, 100);
}

// The primitive itself, watched through a recording clearing: the returned
// solution is one of the probes (bit for bit), it meets the target, no
// probe that met the target had a lower objective, and the frugal limit is
// returned only when no smaller probe met the target.
TEST(CappedSolver, SearchReturnsTheBestProbeItChecked) {
  const auto f = fleet();
  const SlotWeights w = test_weights();
  const LadderSolver ladder;
  int met = 0;
  const double mu0 = w.brown_price(0.06);
  for (double lambda : {30'000.0, 60'000.0}) {
    // Power of the grid-draw clearing at m = 0 (independent of on-site).
    LoadLpContext lp0(f);
    const double p0 = ladder.solve_linear(f, {lambda, 0.0, 0.06}, w, mu0, lp0)
                          .outcome.facility_power_kw;
    for (double onsite : {0.0, 0.5 * p0}) {
      const SlotInput input{lambda, onsite, 0.06};
      for (double fraction : {0.5, 0.8, 0.99}) {
        for (double hint : {0.0, 0.05, 5.0}) {
          const double target = onsite + (p0 - onsite) * fraction;
          struct Probe {
            double m;
            SlotSolution solution;
          };
          std::vector<Probe> probes;
          LoadLpContext lp(f);
          SlotSolution kept;
          const auto search = util::smallest_multiplier(
              [&](double m) {
                probes.push_back(
                    {m, ladder.solve_linear(f, input, w, mu0 + m, lp)});
                const auto& outcome = probes.back().solution.outcome;
                return util::MultiplierProbe{outcome.facility_power_kw,
                                             outcome.objective};
              },
              [&] { kept = probes.back().solution; }, target, p0, 1e7, hint);
          ASSERT_EQ(search.probes, static_cast<int>(probes.size()));
          if (!search.met) {
            // Unattainable: the frugal limit was probed and missed.
            ASSERT_EQ(probes.back().m, 1e7);
            EXPECT_GT(probes.back().solution.outcome.facility_power_kw,
                      target);
            continue;
          }
          ++met;
          EXPECT_LE(kept.outcome.facility_power_kw, target);
          EXPECT_LT(search.probes, 20);
          bool returned_a_probe = false;
          double smallest_met = 1e7;
          for (const auto& probe : probes) {
            if (probe.solution.outcome.facility_power_kw > target) continue;
            smallest_met = std::min(smallest_met, probe.m);
            EXPECT_LE(kept.outcome.objective,
                      probe.solution.outcome.objective);
            returned_a_probe |=
                probe.m == search.multiplier &&
                std::memcmp(&probe.solution.outcome.objective,
                            &kept.outcome.objective,
                            sizeof(double)) == 0;
          }
          EXPECT_TRUE(returned_a_probe);
          if (smallest_met < 1e7) {
            EXPECT_LT(search.multiplier, 1e7);
          }
        }
      }
    }
  }
  EXPECT_GT(met, 20);
}

TEST(CappedSolver, ReportsTheClearingsItUsed) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = LadderSolver().solve(f, input, test_weights());
  const auto loose = CappedSlotSolver().solve(f, input, test_weights(),
                                              base.outcome.brown_kwh * 2.0);
  EXPECT_EQ(loose.clearings, 1);
  const auto binding = CappedSlotSolver().solve(f, input, test_weights(),
                                                base.outcome.brown_kwh * 0.8);
  EXPECT_GT(binding.clearings, 1);
  EXPECT_LT(binding.clearings, 20);
  // A dropped cap costs the unconstrained solve plus the hint and frugal
  // probes.
  const auto dropped = CappedSlotSolver().solve(f, input, test_weights(), 1.0);
  ASSERT_TRUE(dropped.cap_dropped);
  EXPECT_EQ(dropped.clearings, 3);
}

}  // namespace
}  // namespace coca::opt
