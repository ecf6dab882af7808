// Ablation — the paper's stated model extensions, exercised over a horizon:
//  (a) nonlinear (increasing-block) electricity tariffs (Sec. 2.1), and
//  (b) a peak facility-power cap (Sec. 3.1).
//
// Both keep Algorithm 1 untouched — only the per-slot engine changes — which
// is exactly the paper's claim that the analysis is "not restricted to a
// linear electricity cost function" and that "additional constraints, such
// as peak power ... can also be incorporated".

#include <iostream>

#include "bench_common.hpp"
#include "opt/tiered_solver.hpp"
#include "sim/scenario.hpp"

int main() {
  coca::bench::ObsScope obs_scope;  // global metrics sink for obs_runtime
  using namespace coca;

  sim::ScenarioConfig config = bench::default_scenario_config();
  config.hours = std::min<std::size_t>(config.hours, 2'190);  // one quarter
  const auto scenario = sim::build_scenario(config);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;

  bench::banner("Extension (a)",
                "increasing-block tariff vs flat price over a quarter");
  bench::scenario_summary(scenario);

  // Flat reference and a two-block tariff whose first block covers ~75% of
  // the flat optimum's typical hourly usage.
  double typical_kwh = 0.0;
  {
    opt::LadderSolver solver;
    double total = 0.0;
    for (std::size_t t = 0; t < 168; ++t) {
      const opt::SlotInput input{scenario.env.workload[t],
                                 scenario.env.onsite_kw[t],
                                 scenario.env.price[t]};
      total += solver.solve(scenario.fleet, input, weights).outcome.brown_kwh;
    }
    typical_kwh = total / 168.0;
  }

  struct TariffCase {
    const char* name;
    double second_block_multiplier;
  };
  util::Table tariff_table({"tariff", "total cost ($)", "energy (MWh)",
                            "hours in upper block", "hours pinned at boundary"});
  const std::vector<TariffCase> tariff_cases = {
      {"flat", 1.0}, {"2nd block 2x", 2.0}, {"2nd block 4x", 4.0},
      {"2nd block 8x", 8.0}};
  struct TariffPoint {
    double cost = 0.0, energy = 0.0;
    int upper = 0, pinned = 0;
  };
  sim::SweepRunner runner;
  bench::sweep_note(runner, tariff_cases.size(), "tariff");
  const auto tariff_points = runner.map(tariff_cases, [&](const TariffCase& c) {
    TariffPoint point;
    for (std::size_t t = 0; t < scenario.env.slots(); ++t) {
      const double base_price = scenario.env.price[t];
      const energy::TieredTariff tariff =
          c.second_block_multiplier == 1.0
              ? energy::TieredTariff::flat(base_price)
              : energy::TieredTariff(
                    {{typical_kwh * 0.75, base_price},
                     {energy::TieredTariff::Tier{}.upto_kwh,
                      base_price * c.second_block_multiplier}});
      const opt::SlotInput input{scenario.env.workload[t],
                                 scenario.env.onsite_kw[t], base_price};
      const auto result =
          opt::solve_tiered_slot(scenario.fleet, input, weights, tariff);
      point.cost += result.solution.outcome.total_cost;
      point.energy += result.solution.outcome.brown_kwh;
      if (result.active_tier > 0) ++point.upper;
      if (result.boundary) ++point.pinned;
    }
    return point;
  });
  for (std::size_t i = 0; i < tariff_cases.size(); ++i) {
    const auto& point = tariff_points[i];
    tariff_table.add_row({std::string(tariff_cases[i].name), point.cost,
                          point.energy / 1000.0,
                          static_cast<double>(point.upper),
                          static_cast<double>(point.pinned)});
  }
  bench::emit(tariff_table);
  std::cout << "\nreading: steeper upper blocks push more hours onto the "
               "block boundary (demand flattening) and shave total energy — "
               "the convex-tariff behaviour Sec. 2.1 anticipates.\n";

  bench::banner("Extension (b)", "peak facility-power cap over a quarter");
  util::Table cap_table({"cap (% of uncapped peak)", "total cost ($)",
                         "peak power (MW)", "capped hours", "dropped caps"});
  // Uncapped reference peak.
  double uncapped_peak = 0.0;
  {
    opt::LadderSolver solver;
    for (std::size_t t = 0; t < scenario.env.slots(); ++t) {
      const opt::SlotInput input{scenario.env.workload[t],
                                 scenario.env.onsite_kw[t],
                                 scenario.env.price[t]};
      uncapped_peak = std::max(
          uncapped_peak,
          solver.solve(scenario.fleet, input, weights).outcome.facility_power_kw);
    }
  }
  const std::vector<double> cap_fractions = {1.0, 0.95, 0.90, 0.85};
  struct CapPoint {
    double cost = 0.0, peak = 0.0;
    int binding = 0, dropped = 0;
    long ladder_solves = 0;
  };
  bench::sweep_note(runner, cap_fractions.size(), "power-cap");
  const auto cap_points = runner.map(cap_fractions, [&](double fraction) {
    const double cap = uncapped_peak * fraction;
    CapPoint point;
    double hint = 0.0;  // warm start: the last binding hour's multiplier
    for (std::size_t t = 0; t < scenario.env.slots(); ++t) {
      const opt::SlotInput input{scenario.env.workload[t],
                                 scenario.env.onsite_kw[t],
                                 scenario.env.price[t]};
      const auto result = opt::solve_power_capped(scenario.fleet, input,
                                                  weights, cap, {}, hint);
      if (result.multiplier > 0.0) hint = result.multiplier;
      point.ladder_solves += result.clearings;
      point.cost += result.solution.outcome.total_cost;
      point.peak = std::max(point.peak, result.solution.outcome.facility_power_kw);
      if (result.multiplier > 0.0) ++point.binding;
      if (result.cap_dropped) ++point.dropped;
    }
    return point;
  });
  for (std::size_t i = 0; i < cap_fractions.size(); ++i) {
    const auto& point = cap_points[i];
    cap_table.add_row({cap_fractions[i] * 100.0, point.cost,
                       point.peak / 1000.0,
                       static_cast<double>(point.binding),
                       static_cast<double>(point.dropped)});
  }
  bench::emit(cap_table);
  {
    obs::BenchReport report("abl_extensions");
    for (std::size_t i = 0; i < tariff_cases.size(); ++i) {
      const auto& point = tariff_points[i];
      obs::BenchResult entry;
      entry.name = "tariff_" + std::to_string(i);
      entry.objective = point.cost;
      entry.meta["second_block_multiplier"] =
          tariff_cases[i].second_block_multiplier;
      entry.meta["energy_mwh"] = point.energy / 1000.0;
      entry.meta["upper_block_hours"] = static_cast<double>(point.upper);
      entry.meta["boundary_hours"] = static_cast<double>(point.pinned);
      report.add(entry);
    }
    for (std::size_t i = 0; i < cap_fractions.size(); ++i) {
      const auto& point = cap_points[i];
      obs::BenchResult entry;
      entry.name = "power_cap_" + std::to_string(i);
      entry.objective = point.cost;
      entry.meta["cap_fraction"] = cap_fractions[i];
      entry.meta["peak_mw"] = point.peak / 1000.0;
      entry.meta["binding_hours"] = static_cast<double>(point.binding);
      entry.meta["dropped_caps"] = static_cast<double>(point.dropped);
      entry.meta["ladder_solves_per_slot"] =
          static_cast<double>(point.ladder_solves) /
          static_cast<double>(scenario.env.slots());
      report.add(entry);
    }
    bench::emit_bench_report(report);
  }
  std::cout << "\nreading: the cap binds only during workload peaks; cost "
               "rises gently as the cap tightens because the solver absorbs "
               "the cut as extra delay on the hottest hours.\n";
  return 0;
}
