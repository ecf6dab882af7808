// Tests for the baselines: carbon-unaware, PerfectHP, OPT (offline dual) and
// the T-step lookahead family — including the ordering relations the paper's
// theory implies (OPT <= lookahead-cost ... <= online costs, carbon caps).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "baselines/carbon_unaware.hpp"
#include "baselines/lookahead.hpp"
#include "baselines/offline_opt.hpp"
#include "baselines/perfect_hp.hpp"
#include "sim/scenario.hpp"

namespace coca::baselines {
namespace {

sim::Scenario small_scenario(std::size_t hours = 400) {
  sim::ScenarioConfig config;
  config.hours = hours;
  config.fleet.total_servers = 20'000;
  config.fleet.group_count = 8;
  config.peak_rate = 100'000.0;
  return sim::build_scenario(config);
}

TEST(CarbonUnaware, MatchesPerSlotCostMinimum) {
  const auto scenario = small_scenario(50);
  CarbonUnawareController controller(scenario.fleet, scenario.weights);
  opt::LadderSolver solver;
  opt::SlotWeights w = scenario.weights;
  w.V = 1.0;
  w.q = 0.0;
  for (std::size_t t = 0; t < 10; ++t) {
    const opt::SlotInput input{scenario.env.workload[t],
                               scenario.env.onsite_kw[t],
                               scenario.env.price[t]};
    const auto plan = controller.plan(t, input);
    const auto direct = solver.solve(scenario.fleet, input, w);
    EXPECT_NEAR(plan.outcome.total_cost, direct.outcome.total_cost, 1e-9);
  }
}

TEST(PerfectHP, CapsSumToAllowanceAndFollowWorkload) {
  const auto scenario = small_scenario(192);  // four 48 h windows
  PerfectHpController hp(scenario.fleet, scenario.weights,
                         scenario.env.workload, scenario.budget);
  const auto& caps = hp.hourly_caps();
  ASSERT_EQ(caps.size(), 192u);
  double total = 0.0;
  for (double c : caps) {
    ASSERT_GE(c, 0.0);
    total += c;
  }
  EXPECT_NEAR(total, scenario.budget.total_allowance(), 1e-6 * total);
  // Within a window, a busier hour gets a larger cap.
  std::size_t busiest = 0, quietest = 0;
  for (std::size_t t = 1; t < 48; ++t) {
    if (scenario.env.workload[t] > scenario.env.workload[busiest]) busiest = t;
    if (scenario.env.workload[t] < scenario.env.workload[quietest]) quietest = t;
  }
  EXPECT_GT(caps[busiest], caps[quietest]);
}

TEST(PerfectHP, RunsAndRespectsBudgetApproximately) {
  const auto scenario = small_scenario(336);
  PerfectHpController hp(scenario.fleet, scenario.weights,
                         scenario.env.workload, scenario.budget);
  const auto result = sim::run_simulation(scenario.fleet, scenario.env, hp,
                                          scenario.weights);
  EXPECT_EQ(result.infeasible_slots, 0u);
  // PerfectHP enforces hourly caps (dropping only infeasible hours), so its
  // total can exceed the allowance only via dropped caps.
  EXPECT_LE(result.metrics.total_brown_kwh(),
            scenario.budget.total_allowance() * 1.10);
}

// The warm hint (the last binding hour's multiplier) makes each hour's
// search depend on the hours before it; that must stay deterministic.
TEST(PerfectHP, WarmHintIsDeterministic) {
  const auto scenario = small_scenario(240);
  const auto run = [&] {
    PerfectHpController hp(scenario.fleet, scenario.weights,
                           scenario.env.workload, scenario.budget);
    std::vector<double> series;
    for (std::size_t t = 0; t < 240; ++t) {
      const opt::SlotInput input{scenario.env.workload[t],
                                 scenario.env.onsite_kw[t],
                                 scenario.env.price[t]};
      const auto plan = hp.plan(t, input);
      series.push_back(plan.outcome.total_cost);
      series.push_back(plan.outcome.brown_kwh);
      for (const auto& group : plan.alloc) {
        series.push_back(static_cast<double>(group.level));
        series.push_back(group.active);
        series.push_back(group.load);
      }
    }
    return std::make_pair(series, hp.ladder_solves());
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.first.size(), second.first.size());
  EXPECT_EQ(std::memcmp(first.first.data(), second.first.data(),
                        first.first.size() * sizeof(double)),
            0);
  EXPECT_EQ(first.second, second.second);
}

// A controller started cold mid-run (no hint) drops the same caps as one
// warmed by the hours before, and both keep brown energy under every cap
// they meet.
TEST(PerfectHP, ColdStartMidRunKeepsTheCapPattern) {
  const auto scenario = small_scenario(240);
  PerfectHpController warm(scenario.fleet, scenario.weights,
                           scenario.env.workload, scenario.budget);
  PerfectHpController cold(scenario.fleet, scenario.weights,
                           scenario.env.workload, scenario.budget);
  const auto& caps = warm.hourly_caps();
  int binding = 0;
  for (std::size_t t = 0; t < 240; ++t) {
    const opt::SlotInput input{scenario.env.workload[t],
                               scenario.env.onsite_kw[t],
                               scenario.env.price[t]};
    const std::size_t warm_dropped = warm.caps_dropped();
    const auto warm_plan = warm.plan(t, input);
    const bool warm_drop = warm.caps_dropped() > warm_dropped;
    if (!warm_drop) {
      EXPECT_LE(warm_plan.outcome.brown_kwh, caps[t] * (1.0 + 1e-9)) << t;
    }
    if (t < 120) continue;
    const std::size_t cold_dropped = cold.caps_dropped();
    const auto cold_plan = cold.plan(t, input);
    EXPECT_EQ(cold.caps_dropped() > cold_dropped, warm_drop) << t;
    if (!warm_drop) {
      EXPECT_LE(cold_plan.outcome.brown_kwh, caps[t] * (1.0 + 1e-9)) << t;
      if (warm_plan.outcome.brown_kwh > caps[t] * 0.999) ++binding;
    }
  }
  EXPECT_GT(binding, 10);
}

TEST(PerfectHP, SizeMismatchThrows) {
  const auto scenario = small_scenario(100);
  const auto short_trace = scenario.env.workload.slice(0, 50);
  EXPECT_THROW(PerfectHpController(scenario.fleet, scenario.weights,
                                   short_trace, scenario.budget),
               std::invalid_argument);
}

TEST(OfflineOpt, UnconstrainedWhenBudgetLoose) {
  const auto scenario = small_scenario(100);
  const auto& env = scenario.env;
  const auto schedule = solve_offline_opt(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.weights, 1e12);
  EXPECT_TRUE(schedule.budget_met);
  EXPECT_DOUBLE_EQ(schedule.multiplier, 0.0);
}

TEST(OfflineOpt, MeetsTightBudget) {
  const auto scenario = small_scenario(200);
  const auto& env = scenario.env;
  const double allowance = scenario.budget.total_allowance();
  const auto schedule = solve_offline_opt(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.weights, allowance);
  ASSERT_TRUE(schedule.budget_met);
  EXPECT_LE(schedule.total_brown_kwh.value(), allowance * (1.0 + 1e-9));
  EXPECT_GE(schedule.total_brown_kwh.value(), allowance * (1.0 - 1e-4));
  EXPECT_GT(schedule.multiplier, 0.0);
}

TEST(OfflineOpt, CostIncreasesAsBudgetTightens) {
  const auto scenario = small_scenario(200);
  const auto& env = scenario.env;
  const double unaware =
      sim::run_carbon_unaware(scenario.fleet, env, scenario.weights)
          .metrics.total_brown_kwh();
  double prev_cost = 0.0;
  for (double fraction : {1.0, 0.92, 0.85}) {
    const auto schedule = solve_offline_opt(
        scenario.fleet, env.workload.values(), env.onsite_kw.values(),
        env.price.values(), scenario.weights, unaware * fraction);
    EXPECT_GE(schedule.total_cost.value(), prev_cost * (1.0 - 1e-6)) << fraction;
    prev_cost = schedule.total_cost.value();
  }
}

TEST(OfflineOpt, LowerBoundsCocaAtSameBudget) {
  // The whole point of OPT: with full information it costs no more than the
  // online controller under the same realized budget.
  const auto scenario = small_scenario(400);
  const auto coca = sim::run_coca_constant_v(scenario, 100.0);
  const auto& env = scenario.env;
  const auto opt_schedule = solve_offline_opt(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.weights, coca.metrics.total_brown_kwh());
  ASSERT_TRUE(opt_schedule.budget_met);
  EXPECT_LE(opt_schedule.total_cost.value(),
            coca.metrics.total_cost() * (1.0 + 0.01));
}

TEST(OfflineOpt, ImpossibleBudgetReportsFailure) {
  const auto scenario = small_scenario(100);
  const auto& env = scenario.env;
  const auto schedule = solve_offline_opt(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.weights, 1.0);
  EXPECT_FALSE(schedule.budget_met);
}

TEST(Lookahead, FrameDecompositionCoversHorizon) {
  const auto scenario = small_scenario(300);
  const auto& env = scenario.env;
  const auto result = solve_lookahead(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.budget, scenario.weights, 100);
  EXPECT_EQ(result.frame_costs.size(), 3u);
  EXPECT_EQ(result.frame_length, 100u);
  double total = 0.0;
  for (double c : result.frame_costs) total += c * 100.0;
  EXPECT_NEAR(total, result.total_cost.value(), 1e-6 * total);
}

TEST(Lookahead, RaggedFinalFrameHandled) {
  const auto scenario = small_scenario(250);
  const auto& env = scenario.env;
  const auto result = solve_lookahead(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.budget, scenario.weights, 100);
  EXPECT_EQ(result.frame_costs.size(), 3u);  // 100 + 100 + 50
}

TEST(Lookahead, LongerLookaheadNoWorseBenchmark) {
  // More lookahead => weakly better (cheaper) oracle, up to per-frame
  // budget-split effects; allow small slack.
  const auto scenario = small_scenario(240);
  const auto& env = scenario.env;
  const auto short_frames = solve_lookahead(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.budget, scenario.weights, 24);
  const auto long_frames = solve_lookahead(
      scenario.fleet, env.workload.values(), env.onsite_kw.values(),
      env.price.values(), scenario.budget, scenario.weights, 240);
  EXPECT_LE(long_frames.total_cost, short_frames.total_cost * 1.05);
}

TEST(Lookahead, Validation) {
  const auto scenario = small_scenario(100);
  const auto& env = scenario.env;
  EXPECT_THROW(solve_lookahead(scenario.fleet, env.workload.values(),
                               env.onsite_kw.values(), env.price.values(),
                               scenario.budget, scenario.weights, 0),
               std::invalid_argument);
  EXPECT_THROW(solve_lookahead(scenario.fleet, env.workload.values(),
                               env.onsite_kw.values(), env.price.values(),
                               scenario.budget, scenario.weights, 1'000),
               std::invalid_argument);
}

}  // namespace
}  // namespace coca::baselines
