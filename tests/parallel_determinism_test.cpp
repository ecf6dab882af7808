// Determinism regression harness for the parallel execution layer.
//
// Hard requirement of the design: with a fixed seed, a parallel run must be
// *bit-identical* to the serial run — multi-chain GSD merges in chain order
// and SweepRunner returns results in point order, so thread count and
// completion order can never leak into the numbers.  These tests compare
// doubles at the bit level (not with tolerances) across
//   (a) 1-thread vs N-thread runs of the same configuration, and
//   (b) repeated invocations of the same configuration.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "opt/gsd.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace coca {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(double a, double b) { EXPECT_EQ(bits(a), bits(b)); }

void expect_same_alloc(const dc::Allocation& a, const dc::Allocation& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].level, b[g].level);
    expect_same_bits(a[g].active, b[g].active);
    expect_same_bits(a[g].load, b[g].load);
  }
}

void expect_same_lp_stats(const opt::LoadLpStats& a, const opt::LoadLpStats& b) {
  // The load-LP engine's warm/cold/memo counters are part of the contract:
  // per-chain contexts make them a pure function of the config, so thread
  // count must not move them.
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.warm, b.warm);
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.regime_flips, b.regime_flips);
  EXPECT_EQ(a.nu_iterations, b.nu_iterations);
}

void expect_same_gsd_result(const opt::GsdResult& a, const opt::GsdResult& b) {
  expect_same_bits(a.solution.outcome.objective, b.solution.outcome.objective);
  expect_same_bits(a.best.outcome.objective, b.best.outcome.objective);
  expect_same_bits(a.best.outcome.brown_kwh, b.best.outcome.brown_kwh);
  EXPECT_EQ(a.best.feasible, b.best.feasible);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.chains_run, b.chains_run);
  EXPECT_EQ(a.winning_chain, b.winning_chain);
  expect_same_alloc(a.solution.alloc, b.solution.alloc);
  expect_same_alloc(a.best.alloc, b.best.alloc);
  expect_same_lp_stats(a.lp_stats, b.lp_stats);
}

dc::Fleet small_fleet() {
  return dc::make_default_fleet({.total_servers = 9,
                                 .group_count = 3,
                                 .generations = 2,
                                 .speed_spread = 0.2,
                                 .power_spread = 0.15,
                                 .seed = 5});
}

opt::SlotWeights small_weights() {
  opt::SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  return w;
}

opt::GsdConfig multi_chain_config(int threads) {
  opt::GsdConfig config;
  config.iterations = 200;
  config.delta = 1e4;
  config.seed = 17;
  config.chains = 4;
  config.threads = threads;
  return config;
}

TEST(MultiChainGsdDeterminism, OneThreadMatchesManyThreadsBitwise) {
  const auto fleet = small_fleet();
  const opt::SlotInput input{30.0, 0.0, 0.06};
  const auto w = small_weights();

  const auto serial =
      opt::GsdSolver(multi_chain_config(1)).solve(fleet, input, w);
  const auto parallel =
      opt::GsdSolver(multi_chain_config(4)).solve(fleet, input, w);
  const auto default_threads =
      opt::GsdSolver(multi_chain_config(0)).solve(fleet, input, w);

  expect_same_gsd_result(serial, parallel);
  expect_same_gsd_result(serial, default_threads);
}

TEST(MultiChainGsdDeterminism, RepeatedInvocationsAreBitIdentical) {
  const auto fleet = small_fleet();
  const opt::SlotInput input{30.0, 0.0, 0.06};
  const auto w = small_weights();
  const opt::GsdSolver solver(multi_chain_config(4));
  const auto first = solver.solve(fleet, input, w);
  const auto second = solver.solve(fleet, input, w);
  expect_same_gsd_result(first, second);
}

TEST(MultiChainGsdDeterminism, MergeEqualsManualChainMergeInChainOrder) {
  // The multi-chain result must be exactly what K independent single-chain
  // runs with seeds (seed ^ c) merge to under the documented rule:
  // feasibility first, then lowest best objective, earliest chain on ties.
  const auto fleet = small_fleet();
  const opt::SlotInput input{30.0, 0.0, 0.06};
  const auto w = small_weights();
  const auto config = multi_chain_config(4);

  std::vector<opt::GsdResult> chains;
  for (int c = 0; c < config.chains; ++c) {
    opt::GsdConfig single = config;
    single.chains = 1;
    single.seed = config.seed ^ static_cast<std::uint64_t>(c);
    chains.push_back(opt::GsdSolver(single).solve(fleet, input, w));
  }
  std::size_t winner = 0;
  int evaluations = 0, accepted = 0;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    evaluations += chains[c].evaluations;
    accepted += chains[c].accepted;
    const bool strictly_better =
        (chains[c].best.feasible && !chains[winner].best.feasible) ||
        (chains[c].best.feasible == chains[winner].best.feasible &&
         chains[c].best.outcome.objective <
             chains[winner].best.outcome.objective);
    if (c > 0 && strictly_better) winner = c;
  }

  const auto merged = opt::GsdSolver(config).solve(fleet, input, w);
  EXPECT_EQ(merged.winning_chain, static_cast<int>(winner));
  EXPECT_EQ(merged.evaluations, evaluations);
  EXPECT_EQ(merged.accepted, accepted);
  expect_same_bits(merged.best.outcome.objective,
                   chains[winner].best.outcome.objective);
  expect_same_alloc(merged.best.alloc, chains[winner].best.alloc);
}

TEST(MultiChainGsdDeterminism, DefaultWarmClearingBitIdenticalAcrossThreads) {
  // The default config re-clears every candidate after a chain's first
  // solve warm (Newton from the cached dual point), which trades
  // bit-exactness *against the reference solver* for speed — but the chain
  // must still be deterministic in itself: same seed, any thread count, same
  // bits, including the warm / cold / regime-flip counters.
  const auto fleet = small_fleet();
  const opt::SlotInput input{30.0, 0.0, 0.06};
  const auto w = small_weights();

  const auto serial =
      opt::GsdSolver(multi_chain_config(1)).solve(fleet, input, w);
  const auto parallel =
      opt::GsdSolver(multi_chain_config(4)).solve(fleet, input, w);
  expect_same_gsd_result(serial, parallel);
  // The engine really ran warm: one cold solve per chain, the rest warm.
  EXPECT_EQ(serial.lp_stats.cold, 4);
  EXPECT_GT(serial.lp_stats.warm, 0);
  EXPECT_EQ(serial.lp_stats.solves,
            serial.lp_stats.warm + serial.lp_stats.cold);
  EXPECT_LE(serial.lp_stats.memo_hits, serial.lp_stats.warm);
}

TEST(MultiChainGsdDeterminism, ChainZeroReproducesSingleChainSeed) {
  // seed ^ 0 == seed: a 1-chain "multi" run is the legacy serial run.
  const auto fleet = small_fleet();
  const opt::SlotInput input{30.0, 0.0, 0.06};
  const auto w = small_weights();
  opt::GsdConfig legacy;
  legacy.iterations = 200;
  legacy.delta = 1e4;
  legacy.seed = 17;
  opt::GsdConfig one_chain = legacy;
  one_chain.chains = 1;
  one_chain.threads = 4;  // must have no effect
  expect_same_gsd_result(opt::GsdSolver(legacy).solve(fleet, input, w),
                         opt::GsdSolver(one_chain).solve(fleet, input, w));
}

// ---------------------------------------------------------------------------
// SweepRunner over year-style simulations (scaled down for test time).

sim::Scenario tiny_scenario() {
  sim::ScenarioConfig config;
  config.hours = 48;
  config.fleet = {.total_servers = 120,
                  .group_count = 4,
                  .generations = 2,
                  .speed_spread = 0.18,
                  .power_spread = 0.12,
                  .seed = 42};
  config.peak_rate = 600.0;
  return sim::build_scenario(config);
}

std::vector<std::vector<double>> sweep_metrics(const sim::Scenario& scenario,
                                               std::size_t threads) {
  const std::vector<double> vs = {1e0, 1e2, 1e3, 1e4, 1e6, 1e8};
  sim::SweepRunner runner({.threads = threads});
  return runner.map(vs, [&](double v) {
    const auto result = sim::run_coca_constant_v(scenario, v);
    std::vector<double> metrics = result.metrics.cost_series();
    metrics.push_back(result.metrics.total_cost());
    metrics.push_back(result.metrics.total_brown_kwh());
    metrics.push_back(static_cast<double>(result.infeasible_slots));
    return metrics;
  });
}

TEST(SweepRunnerDeterminism, OneThreadMatchesManyThreadsBitwise) {
  const auto scenario = tiny_scenario();
  const auto serial = sweep_metrics(scenario, 1);
  const auto parallel = sweep_metrics(scenario, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t point = 0; point < serial.size(); ++point) {
    ASSERT_EQ(serial[point].size(), parallel[point].size());
    for (std::size_t k = 0; k < serial[point].size(); ++k) {
      EXPECT_EQ(bits(serial[point][k]), bits(parallel[point][k]))
          << "point " << point << " metric " << k;
    }
  }
}

TEST(SweepRunnerDeterminism, RepeatedInvocationsAreBitIdentical) {
  const auto scenario = tiny_scenario();
  const auto first = sweep_metrics(scenario, 4);
  const auto second = sweep_metrics(scenario, 4);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t point = 0; point < first.size(); ++point) {
    for (std::size_t k = 0; k < first[point].size(); ++k) {
      EXPECT_EQ(bits(first[point][k]), bits(second[point][k]));
    }
  }
}

TEST(SweepRunnerDeterminism, ResultsArriveInPointOrder) {
  sim::SweepRunner runner({.threads = 4});
  const auto indices =
      runner.map(std::size_t{64}, [](std::size_t i) { return i; });
  for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
}

}  // namespace
}  // namespace coca
