// DES tail-latency figure — request-level replay of COCA vs carbon-unaware.
//
// The slot simulator bills delay through the analytic M/G/1/PS mean (Eq. 4),
// which says nothing about the latency *distribution*.  This bench replays
// each controller's executed slot decisions through the sharded request-level
// DES (des::ShardRunner) and reports per-request sojourn-time quantiles:
// does COCA's carbon chasing — slower speeds, fewer active servers — fatten
// the tail relative to the cost-only baseline, and by how much?
//
// Determinism: the replay is bit-identical across shard-thread counts (see
// des/shard_runner.hpp).  This bench *proves* it on every run by replaying
// once on 1 thread and once on COCA_THREADS, requiring byte-equal histogram
// bins; the golden in bench/golden/ then pins the quantiles across commits.
//
// Extra knobs (beyond bench_common.hpp):
//   COCA_BENCH_DES_SLOT_SECONDS  simulated seconds per slot (default 150,
//                                ~1.3M requests at the golden's 240x6 shape)
//   COCA_DES_TRACE_DIR           write per-slot coca-des-trace-v1 JSONL files

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/carbon_unaware.hpp"
#include "bench_common.hpp"
#include "core/calibration.hpp"
#include "core/coca_controller.hpp"
#include "des/shard_runner.hpp"

namespace {

using namespace coca;

struct ReplayedRun {
  sim::SimResult sim;
  std::vector<dc::Allocation> decisions;
};

/// Run a controller through the slot simulator, capturing the executed
/// allocation sequence the DES replays.
ReplayedRun run_recorded(const sim::Scenario& scenario,
                         core::SlotController& controller) {
  ReplayedRun run;
  sim::SimOptions options;
  options.record_allocations = &run.decisions;
  run.sim = sim::run_simulation(scenario.fleet, scenario.env, controller,
                                scenario.weights, options);
  return run;
}

/// Byte-level equality of two replays (bin counts and serial reductions).
bool bit_identical(const des::ShardReplayResult& a,
                   const des::ShardReplayResult& b) {
  return a.sojourn.counts() == b.sojourn.counts() &&
         a.requests == b.requests && a.completions == b.completions &&
         a.in_flight == b.in_flight &&
         a.total_response_seconds == b.total_response_seconds &&
         a.area_jobs == b.area_jobs;
}

void write_trace(const std::string& dir, const std::string& name,
                 const des::ShardReplayResult& result) {
  const std::string path = dir + "/des_trace_" + name + ".jsonl";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  for (const auto& slot : result.slot_traces) {
    out << des::to_json_line(slot) << "\n";
  }
  std::cout << "des trace (" << des::kDesTraceSchema << "): " << path << " ("
            << result.slot_traces.size() << " slots)\n";
}

}  // namespace

int main() {
  coca::bench::ObsScope obs_scope;  // global metrics sink for obs_runtime
  const auto scenario = sim::build_scenario(bench::default_scenario_config());

  bench::banner("DES tail figure",
                "request-level sojourn-time tails, COCA vs carbon-unaware");
  bench::scenario_summary(scenario);

  // Calibrate V for carbon neutrality, as the paper does throughout Sec. 5.
  const auto v_star = core::calibrate_v(
      [&](double v) {
        return sim::run_coca_constant_v(scenario, v).metrics.total_brown_kwh();
      },
      scenario.budget.total_allowance(),
      {.v_lo = 1.0, .v_hi = 1e10, .max_runs = 14});
  std::cout << "calibrated V = " << v_star.v << " (" << v_star.runs
            << " calibration runs)\n";

  core::CocaConfig coca_config;
  coca_config.weights = scenario.weights;
  coca_config.schedule = core::VSchedule::constant(v_star.v);
  coca_config.alpha = scenario.budget.alpha();
  coca_config.rec_per_slot = scenario.budget.rec_per_slot();
  core::CocaController coca_controller(scenario.fleet, coca_config);
  baselines::CarbonUnawareController unaware_controller(scenario.fleet,
                                                        scenario.weights);

  const ReplayedRun coca = run_recorded(scenario, coca_controller);
  const ReplayedRun unaware = run_recorded(scenario, unaware_controller);

  des::ShardReplayConfig replay_config;
  replay_config.shards = scenario.fleet.group_count();
  replay_config.seconds_per_slot = static_cast<double>(
      bench::env_size("COCA_BENCH_DES_SLOT_SECONDS", 150));
  // Per-slot traces are only read when they are written out.
  const char* trace_dir = std::getenv("COCA_DES_TRACE_DIR");
  replay_config.trace_slots = trace_dir != nullptr;
  des::ShardRunner runner(scenario.fleet, replay_config);

  des::ShardReplayConfig serial_config = replay_config;
  serial_config.threads = 1;
  serial_config.trace_slots = false;
  des::ShardRunner serial_runner(scenario.fleet, serial_config);

  std::cout << "replay: " << runner.shard_count() << " shards on "
            << runner.threads() << " thread(s), "
            << replay_config.seconds_per_slot << " s per slot\n";

  const auto coca_des = runner.replay(coca.decisions);
  const auto unaware_des = runner.replay(unaware.decisions);

  // Determinism self-check: the 1-thread replay must be byte-identical.
  const bool deterministic =
      bit_identical(coca_des, serial_runner.replay(coca.decisions)) &&
      bit_identical(unaware_des, serial_runner.replay(unaware.decisions));
  std::cout << "determinism (1 vs " << runner.threads()
            << " threads): " << (deterministic ? "bit-identical" : "MISMATCH")
            << "\n";

  if (trace_dir != nullptr) {
    write_trace(trace_dir, "coca", coca_des);
    write_trace(trace_dir, "carbon_unaware", unaware_des);
  }

  util::Table table({"policy", "requests", "completed", "mean sojourn (s)",
                     "p50 (s)", "p99 (s)", "p99.9 (s)", "mean jobs/server"});
  const auto add_row = [&table](const char* name,
                                const des::ShardReplayResult& r) {
    table.add_row({std::string(name), static_cast<double>(r.requests),
                   static_cast<double>(r.completions),
                   r.mean_response_seconds(), r.quantile(0.50),
                   r.quantile(0.99), r.quantile(0.999),
                   r.mean_jobs_in_system()});
  };
  add_row("coca", coca_des);
  add_row("carbon-unaware", unaware_des);
  bench::emit(table);

  const std::uint64_t total_requests = coca_des.requests + unaware_des.requests;
  {
    obs::BenchReport report("fig_des_tail");
    const auto entry = [&](const char* name, const ReplayedRun& run,
                           const des::ShardReplayResult& r) {
      obs::BenchResult result;
      result.name = name;
      result.objective = r.quantile(0.99);
      result.meta["requests"] = static_cast<double>(r.requests);
      result.meta["completions"] = static_cast<double>(r.completions);
      result.meta["in_flight"] = static_cast<double>(r.in_flight);
      result.meta["mean_sojourn_s"] = r.mean_response_seconds();
      result.meta["p50_s"] = r.quantile(0.50);
      result.meta["p999_s"] = r.quantile(0.999);
      result.meta["mean_jobs_per_server"] = r.mean_jobs_in_system();
      result.meta["sim_total_cost"] = run.sim.metrics.total_cost();
      result.meta["deterministic"] = deterministic ? 1.0 : 0.0;
      return result;
    };
    auto coca_entry = entry("coca", coca, coca_des);
    coca_entry.meta["calibrated_v"] = v_star.v;
    report.add(coca_entry);
    report.add(entry("carbon_unaware", unaware, unaware_des));
    bench::emit_bench_report(report);
  }

  std::cout << "\nreplayed " << total_requests
            << " requests total (target: >= 1e6 at golden shape)\n"
            << "paper shape: COCA trades a fatter sojourn tail (slower "
               "speeds under carbon pressure) for >25% cost saving; the "
               "p99 gap quantifies that latency price.\n";
  return deterministic ? 0 : 1;
}
