// Tests for the paper's stated extensions, implemented in this repo:
//  * peak-power capping (Sec. 3.1: "additional constraints, such as peak
//    power ... can also be incorporated"),
//  * nonlinear convex electricity tariffs (Sec. 2.1),
//  * server-failure tolerance (Sec. 4.2).

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/coca_controller.hpp"
#include "energy/tariff.hpp"
#include "opt/exhaustive_solver.hpp"
#include "opt/gsd.hpp"
#include "opt/tiered_solver.hpp"
#include "sim/scenario.hpp"

namespace coca {
namespace {

opt::SlotWeights test_weights() {
  opt::SlotWeights w;
  w.beta = 0.005;
  w.gamma = 0.9;
  return w;
}

dc::Fleet test_fleet() {
  return dc::make_default_fleet({.total_servers = 20'000,
                                 .group_count = 8,
                                 .generations = 4,
                                 .speed_spread = 0.18,
                                 .power_spread = 0.12,
                                 .seed = 1});
}

// ---------- peak-power capping ----------

TEST(PowerCap, LooseCapIsFree) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const auto capped = opt::solve_power_capped(
      fleet, input, test_weights(), base.outcome.facility_power_kw * 2.0);
  EXPECT_TRUE(capped.cap_met);
  EXPECT_DOUBLE_EQ(capped.multiplier, 0.0);
  EXPECT_NEAR(capped.solution.outcome.total_cost, base.outcome.total_cost, 1e-9);
}

TEST(PowerCap, BindingCapRespected) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const double cap = base.outcome.facility_power_kw * 0.85;
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.facility_power_kw, cap * (1.0 + 1e-6));
  EXPECT_GT(capped.multiplier, 0.0);
  EXPECT_GE(capped.solution.outcome.total_cost, base.outcome.total_cost);
}

TEST(PowerCap, ImpossibleCapDetected) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), 1.0);
  EXPECT_TRUE(capped.cap_dropped);
  EXPECT_FALSE(capped.cap_met);
}

TEST(PowerCap, CapBindsEvenWithAbundantRenewables) {
  // Peak power is about the facility feed, not the carbon account: a huge
  // on-site supply must not loosen the cap.
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 1e6, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const double cap = base.outcome.facility_power_kw * 0.8;
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.facility_power_kw, cap * (1.0 + 1e-6));
}

TEST(PowerCap, PowerPriceWeightMonotonicity) {
  // The underlying knob: facility power is nonincreasing in power_price.
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  double prev = 1e18;
  for (double xi : {0.0, 0.01, 0.1, 1.0, 10.0}) {
    auto w = test_weights();
    w.power_price = xi;
    const auto sol = opt::LadderSolver().solve(fleet, input, w);
    ASSERT_TRUE(sol.feasible);
    EXPECT_LE(sol.outcome.facility_power_kw, prev * (1.0 + 1e-9)) << xi;
    prev = sol.outcome.facility_power_kw;
  }
}

// Binding power caps at 0.5-0.99 of the unconstrained facility power,
// across workloads and on-site supplies (including caps below the on-site
// supply, which bind on free energy).  Oracle: full ladder solves at
// power_price = xi on a geometric grid, plus points just below the returned
// multiplier.  Every grid price that meets the cap bounds the returned
// multiplier from above (within 1%), and every oracle point that meets the
// cap bounds the returned cost — so a search that stops short of the cap
// (a point slightly below its multiplier still meets it, cheaper) fails.
TEST(PowerCap, BindingCapsReturnTheSmallestMeetingMultiplier) {
  const auto fleet = test_fleet();
  const opt::SlotWeights w = test_weights();
  const opt::LadderSolver ladder;
  int binding = 0;
  for (double lambda : {30'000.0, 50'000.0, 70'000.0}) {
    for (double onsite : {0.0, 4'000.0, 1e6}) {
      const opt::SlotInput input{lambda, onsite, 0.06};
      const auto base = ladder.solve(fleet, input, w);
      for (double fraction : {0.5, 0.7, 0.9, 0.99}) {
        const double cap = base.outcome.facility_power_kw * fraction;
        const auto capped = opt::solve_power_capped(fleet, input, w, cap);
        if (capped.cap_met) {
          EXPECT_LE(capped.solution.outcome.facility_power_kw,
                    cap * (1.0 + 1e-9))
              << lambda << " " << onsite << " " << fraction;
        }
        std::vector<std::pair<double, bool>> oracle;  // (xi, on the grid)
        for (double xi = 1e-3; xi <= 1e3; xi *= 1.5) oracle.push_back({xi, true});
        for (double below : {1e-3, 3e-3, 1e-2, 3e-2}) {
          oracle.push_back({capped.multiplier * (1.0 - below), false});
        }
        for (const auto& [xi, on_grid] : oracle) {
          opt::SlotWeights probe = w;
          probe.power_price = xi;
          const auto at_xi = ladder.solve(fleet, input, probe);
          if (at_xi.outcome.facility_power_kw > cap * (1.0 + 1e-9)) continue;
          ++binding;
          EXPECT_TRUE(capped.cap_met) << lambda << " " << onsite;
          if (on_grid) {
            EXPECT_LE(capped.multiplier, xi * 1.01)
                << lambda << " " << onsite << " " << fraction;
          }
          EXPECT_LE(capped.solution.outcome.total_cost,
                    at_xi.outcome.total_cost * (1.0 + 1e-6))
              << lambda << " " << onsite << " " << fraction << " xi=" << xi;
        }
      }
    }
  }
  EXPECT_GT(binding, 100);
}

// ---------- tiered tariffs ----------

TEST(Tariff, FlatTariffIsLinear) {
  const auto flat = energy::TieredTariff::flat(0.08);
  EXPECT_DOUBLE_EQ(flat.cost(0.0), 0.0);
  EXPECT_DOUBLE_EQ(flat.cost(125.0), 10.0);
  EXPECT_DOUBLE_EQ(flat.marginal_price(1e9), 0.08);
}

TEST(Tariff, BlockBillingMatchesHandComputation) {
  const energy::TieredTariff tariff(
      {{100.0, 0.05}, {200.0, 0.10}, {energy::TieredTariff::Tier{}.upto_kwh, 0.20}});
  EXPECT_DOUBLE_EQ(tariff.cost(50.0), 2.5);
  EXPECT_DOUBLE_EQ(tariff.cost(100.0), 5.0);
  EXPECT_DOUBLE_EQ(tariff.cost(150.0), 10.0);
  EXPECT_DOUBLE_EQ(tariff.cost(250.0), 25.0);
  EXPECT_EQ(tariff.tier_of(150.0), 1u);
  EXPECT_DOUBLE_EQ(tariff.tier_floor(2), 200.0);
  EXPECT_DOUBLE_EQ(tariff.marginal_price(250.0), 0.20);
}

TEST(Tariff, ConvexityValidation) {
  using T = energy::TieredTariff;
  // Decreasing prices violate convexity.
  EXPECT_THROW(T({{100.0, 0.10}, {T::Tier{}.upto_kwh, 0.05}}),
               std::invalid_argument);
  // Final tier must be unbounded.
  EXPECT_THROW(T({{100.0, 0.05}}), std::invalid_argument);
  // Thresholds must increase.
  EXPECT_THROW(T({{100.0, 0.05}, {100.0, 0.06}, {T::Tier{}.upto_kwh, 0.07}}),
               std::invalid_argument);
  EXPECT_THROW(T({}), std::invalid_argument);
  EXPECT_THROW(T::flat(0.05).cost(-1.0), std::invalid_argument);
}

TEST(TieredSolver, FlatTariffMatchesBaseSolver) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const auto tiered = opt::solve_tiered_slot(
      fleet, input, test_weights(), energy::TieredTariff::flat(0.06));
  ASSERT_TRUE(tiered.solution.feasible);
  EXPECT_NEAR(tiered.solution.outcome.total_cost, base.outcome.total_cost,
              1e-6 * base.outcome.total_cost);
  EXPECT_FALSE(tiered.boundary);
}

TEST(TieredSolver, ExpensiveUpperBlockCurbsUsage) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto flat = opt::solve_tiered_slot(fleet, input, test_weights(),
                                           energy::TieredTariff::flat(0.06));
  const double base_usage = flat.solution.outcome.brown_kwh;
  // Usage above 80% of the flat optimum costs 10x more.
  const energy::TieredTariff punitive(
      {{base_usage * 0.8, 0.06},
       {energy::TieredTariff::Tier{}.upto_kwh, 0.60}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(),
                                             punitive);
  ASSERT_TRUE(tiered.solution.feasible);
  EXPECT_LT(tiered.solution.outcome.brown_kwh, base_usage);
  // The bill must be the tariff's, not the linear price's.
  EXPECT_NEAR(tiered.solution.outcome.electricity_cost,
              punitive.cost(tiered.solution.outcome.brown_kwh), 1e-9);
}

TEST(TieredSolver, OptimumPinsAtBoundaryWhenJumpIsLarge) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto flat = opt::solve_tiered_slot(fleet, input, test_weights(),
                                           energy::TieredTariff::flat(0.06));
  const double base_usage = flat.solution.outcome.brown_kwh;
  const energy::TieredTariff jumpy(
      {{base_usage * 0.9, 0.06},
       {energy::TieredTariff::Tier{}.upto_kwh, 5.0}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(), jumpy);
  ASSERT_TRUE(tiered.solution.feasible);
  // With a brutal second block the optimum should sit at (or below) the
  // boundary rather than inside the expensive tier.
  EXPECT_LE(tiered.solution.outcome.brown_kwh, base_usage * 0.9 * (1.0 + 1e-6));
}

TEST(TieredSolver, NeverWorseThanAnyFixedTierPrice) {
  // Exactness property: the tiered optimum's true bill is <= the true bill
  // of every single-price solution.
  const auto fleet = test_fleet();
  const opt::SlotInput input{40'000.0, 0.0, 0.06};
  const energy::TieredTariff tariff(
      {{2'000.0, 0.04}, {6'000.0, 0.09},
       {energy::TieredTariff::Tier{}.upto_kwh, 0.18}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(), tariff);
  ASSERT_TRUE(tiered.solution.feasible);
  for (std::size_t k = 0; k < tariff.tier_count(); ++k) {
    opt::SlotInput probe = input;
    probe.price = tariff.tier(k).price;
    const auto fixed = opt::LadderSolver().solve(fleet, probe, test_weights());
    const double true_cost = tariff.cost(fixed.outcome.brown_kwh) +
                             fixed.outcome.delay_cost;
    EXPECT_LE(tiered.solution.outcome.total_cost, true_cost * (1.0 + 1e-9))
        << "tier " << k;
  }
}

// ---------- failure injection ----------

TEST(Failures, DegradedFleetShrinksCapacity) {
  const auto fleet = dc::make_homogeneous_fleet(3, 10);
  const auto degraded = dc::degraded_fleet(fleet, {0, 5, 10});
  EXPECT_EQ(degraded.group_count(), 3u);
  EXPECT_EQ(degraded.total_servers(), 15u);
  EXPECT_EQ(degraded.group(2).server_count(), 0u);
  EXPECT_THROW(dc::degraded_fleet(fleet, {0, 0}), std::invalid_argument);
  EXPECT_THROW(dc::degraded_fleet(fleet, {0, 0, 11}), std::invalid_argument);
}

TEST(Failures, SolversSkipDeadGroups) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 10'000, .group_count = 5, .generations = 2,
       .speed_spread = 0.18, .power_spread = 0.12, .seed = 2});
  const auto degraded = dc::degraded_fleet(fleet, {0, 2'000, 0, 2'000, 0});
  const opt::SlotInput input{20'000.0, 0.0, 0.06};
  const auto sol = opt::LadderSolver().solve(degraded, input, test_weights());
  ASSERT_TRUE(sol.feasible);
  EXPECT_DOUBLE_EQ(sol.alloc[1].active, 0.0);
  EXPECT_DOUBLE_EQ(sol.alloc[1].load, 0.0);
  EXPECT_DOUBLE_EQ(sol.alloc[3].active, 0.0);
  EXPECT_NEAR(dc::total_load(sol.alloc), 20'000.0, 1e-3);
}

TEST(Failures, GsdRunsOnDegradedFleet) {
  // Sec. 4.2: "only functioning servers need to participate in GSD".
  const auto fleet = dc::make_homogeneous_fleet(3, 4);
  const auto degraded = dc::degraded_fleet(fleet, {0, 4, 1});
  const opt::SlotInput input{20.0, 0.0, 0.06};
  opt::GsdConfig config;
  config.iterations = 800;
  config.delta = 1e4;
  config.seed = 6;
  const auto result =
      opt::GsdSolver(config).solve(degraded, input, test_weights());
  ASSERT_TRUE(result.best.feasible);
  EXPECT_DOUBLE_EQ(result.best.alloc[1].active, 0.0);
  const auto exact = opt::ExhaustiveSolver().solve(degraded, input, test_weights());
  EXPECT_LE(result.best.outcome.objective, exact.outcome.objective * 1.02);
}

TEST(Failures, CocaSurvivesMidRunCapacityLoss) {
  // A quarter of the fleet fails mid-run; the controller keeps its queue and
  // continues on the degraded fleet (set_fleet hot-swap).
  sim::ScenarioConfig config;
  config.hours = 200;
  config.fleet.total_servers = 20'000;
  config.fleet.group_count = 8;
  config.peak_rate = 100'000.0;
  const auto scenario = sim::build_scenario(config);

  std::vector<std::size_t> failures(8, 0);
  for (std::size_t g = 0; g < 2; ++g) {
    failures[g] = scenario.fleet.group(g).server_count();
  }
  const auto degraded = dc::degraded_fleet(scenario.fleet, failures);

  core::CocaConfig coca_config;
  coca_config.weights = scenario.weights;
  coca_config.schedule = core::VSchedule::constant(1e4);
  coca_config.alpha = scenario.budget.alpha();
  coca_config.rec_per_slot = scenario.budget.rec_per_slot();
  core::CocaController controller(scenario.fleet, coca_config);

  double cost = 0.0;
  std::size_t infeasible = 0;
  std::size_t observed = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    if (t == 100) controller.set_fleet(degraded);
    const dc::Fleet& active = t < 100 ? scenario.fleet : degraded;
    const opt::SlotInput input{scenario.env.workload[t],
                               scenario.env.onsite_kw[t],
                               scenario.env.price[t]};
    const auto plan = controller.plan(t, input);
    if (!plan.feasible) {
      ++infeasible;
      continue;
    }
    // Dead groups must never carry load after the failure.
    if (t >= 100) {
      EXPECT_DOUBLE_EQ(plan.alloc[0].active, 0.0);
      EXPECT_DOUBLE_EQ(plan.alloc[1].active, 0.0);
    }
    (void)active;
    cost += plan.outcome.total_cost;
    controller.observe(t, plan.outcome, scenario.env.offsite_kwh[t]);
    ++observed;
  }
  EXPECT_EQ(infeasible, 0u);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(observed, 200u);  // every slot, before and after the swap
}

}  // namespace
}  // namespace coca
