// Fig. 3 — COCA vs the prediction-based PerfectHP heuristic.
//
// Paper: running-average hourly cost (a) and carbon deficit (b) over the
// year; COCA saves more than 25% cost while tracking the carbon budget more
// accurately.  The running average at t is sum(0..t)/(t+1) (paper footnote 4).

#include <iostream>

#include "baselines/perfect_hp.hpp"
#include "bench_common.hpp"
#include "core/calibration.hpp"
#include "util/moving_average.hpp"

int main() {
  coca::bench::ObsScope obs_scope;  // global metrics sink for obs_runtime
  using namespace coca;

  const auto scenario = sim::build_scenario(bench::default_scenario_config());
  const std::size_t hours = scenario.env.slots();

  bench::banner("Fig. 3", "COCA vs PerfectHP (48-hour perfect prediction)");
  bench::scenario_summary(scenario);

  // Choose V for carbon neutrality, as the paper does throughout Sec. 5.
  const auto v_star = core::calibrate_v(
      [&](double v) {
        return sim::run_coca_constant_v(scenario, v).metrics.total_brown_kwh();
      },
      scenario.budget.total_allowance(),
      {.v_lo = 1.0, .v_hi = 1e10, .max_runs = 14});
  std::cout << "calibrated V = " << v_star.v << " (" << v_star.runs
            << " calibration runs, usage "
            << 100.0 * v_star.usage / scenario.budget.total_allowance()
            << "% of allowance)\n";
  const auto coca = sim::run_coca_constant_v(scenario, v_star.v);

  baselines::PerfectHpController hp(scenario.fleet, scenario.weights,
                                    scenario.env.workload, scenario.budget);
  const auto perfect_hp = sim::run_simulation(scenario.fleet, scenario.env, hp,
                                              scenario.weights);

  const auto coca_cost = util::running_average_series(coca.metrics.cost_series());
  const auto hp_cost =
      util::running_average_series(perfect_hp.metrics.cost_series());
  const auto coca_deficit = util::running_average_series(
      coca.metrics.deficit_series(scenario.budget));
  const auto hp_deficit = util::running_average_series(
      perfect_hp.metrics.deficit_series(scenario.budget));

  util::Table series({"hour", "COCA avg cost ($)", "PerfectHP avg cost ($)",
                      "COCA avg deficit (kWh)", "PerfectHP avg deficit (kWh)"});
  for (std::size_t t = hours / 24; t < hours;
       t += std::max<std::size_t>(1, hours / 16)) {
    series.add_row({static_cast<double>(t), coca_cost[t], hp_cost[t],
                    coca_deficit[t], hp_deficit[t]});
  }
  series.add_row({static_cast<double>(hours - 1), coca_cost.back(),
                  hp_cost.back(), coca_deficit.back(), hp_deficit.back()});
  bench::emit(series);

  const double saving =
      1.0 - coca.metrics.total_cost() / perfect_hp.metrics.total_cost();
  {
    obs::BenchReport report("fig3_vs_perfecthp");
    obs::BenchResult coca_entry;
    coca_entry.name = "coca";
    coca_entry.objective = coca.metrics.total_cost();
    coca_entry.meta["calibrated_v"] = v_star.v;
    coca_entry.meta["budget_used_pct"] =
        100.0 * coca.metrics.total_brown_kwh() /
        scenario.budget.total_allowance();
    coca_entry.meta["saving_vs_perfecthp_pct"] = saving * 100.0;
    report.add(coca_entry);
    obs::BenchResult hp_entry;
    hp_entry.name = "perfect_hp";
    hp_entry.objective = perfect_hp.metrics.total_cost();
    hp_entry.meta["budget_used_pct"] =
        100.0 * perfect_hp.metrics.total_brown_kwh() /
        scenario.budget.total_allowance();
    hp_entry.meta["caps_dropped"] = static_cast<double>(hp.caps_dropped());
    hp_entry.meta["ladder_solves_per_slot"] =
        static_cast<double>(hp.ladder_solves()) / static_cast<double>(hours);
    report.add(hp_entry);
    bench::emit_bench_report(report);
  }
  std::cout << "\nCOCA cost saving vs PerfectHP: " << saving * 100.0
            << "%  (paper: more than 25%)\n";
  std::cout << "COCA budget usage:      "
            << 100.0 * coca.metrics.total_brown_kwh() /
                   scenario.budget.total_allowance()
            << "% of allowance\n";
  std::cout << "PerfectHP budget usage: "
            << 100.0 * perfect_hp.metrics.total_brown_kwh() /
                   scenario.budget.total_allowance()
            << "% of allowance (caps dropped on " << hp.caps_dropped()
            << " hours)\n";
  std::cout << "\npaper shape: COCA's running-average cost sits well below "
               "PerfectHP's, because PerfectHP's per-hour budget slices force "
               "high delay cost during busy hours; COCA spreads the deficit "
               "over time via the queue.\n";
  return 0;
}
