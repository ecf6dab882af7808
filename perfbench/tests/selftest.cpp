// Self-tests of the benchmark's own pieces: the timing decorator is
// pass-through (bit-identical outputs, crash/restore included), the tail
// percentile rule, the metric table, and the span recorder's self times.
// Run with `python3 perfbench/run.py --self-test`; exit code 0 = all pass.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/coca_controller.hpp"
#include "fault/schedule.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "timed_controller.hpp"

namespace {

using namespace coca;
using perfbench::ControllerStats;
using perfbench::TimedController;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

struct Run {
  sim::SimResult result;
  std::vector<dc::Allocation> executed;
  std::string trace;  // slot-trace JSONL with timing fields masked
};

Run simulate(const sim::Scenario& scenario, const core::CocaConfig& config,
             const fault::Schedule* faults, bool decorated) {
  Run run;
  core::CocaController controller(scenario.fleet, config);
  ControllerStats stats;
  TimedController timed(controller, "core", stats);
  obs::SlotTraceWriter writer;
  sim::SimOptions options;
  options.record_allocations = &run.executed;
  options.faults = faults;
  options.trace = &writer;
  core::SlotController& driven =
      decorated ? static_cast<core::SlotController&>(timed) : controller;
  run.result = sim::run_simulation(scenario.fleet, scenario.env, driven,
                                   scenario.weights, options);
  run.trace = obs::mask_timing_fields(writer.to_jsonl());
  if (decorated) {
    check(stats.plan_us.size() + static_cast<std::size_t>(
                                     run.result.faults.fallback_activations) ==
              run.result.metrics.slot_count(),
          "decorator saw one plan() per solved slot");
  }
  return run;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool identical(const Run& a, const Run& b) {
  const auto& ma = a.result.metrics;
  const auto& mb = b.result.metrics;
  if (ma.slot_count() != mb.slot_count()) return false;
  const auto ca = ma.cost_series(), cb = mb.cost_series();
  const auto ba = ma.brown_series(), bb = mb.brown_series();
  const auto qa = ma.queue_series(), qb = mb.queue_series();
  for (std::size_t t = 0; t < ca.size(); ++t) {
    if (!same_bits(ca[t], cb[t]) || !same_bits(ba[t], bb[t]) ||
        !same_bits(qa[t], qb[t])) {
      return false;
    }
  }
  if (a.executed.size() != b.executed.size()) return false;
  for (std::size_t t = 0; t < a.executed.size(); ++t) {
    for (std::size_t g = 0; g < a.executed[t].size(); ++g) {
      const auto& x = a.executed[t][g];
      const auto& y = b.executed[t][g];
      if (x.level != y.level || !same_bits(x.active, y.active) ||
          !same_bits(x.load, y.load)) {
        return false;
      }
    }
  }
  const auto& fa = a.result.faults;
  const auto& fb = b.result.faults;
  return a.result.infeasible_slots == b.result.infeasible_slots &&
         fa.degraded_slots == fb.degraded_slots &&
         fa.crash_restarts == fb.crash_restarts &&
         fa.checkpoints_taken == fb.checkpoints_taken &&
         fa.fallback_activations == fb.fallback_activations &&
         a.trace == b.trace;
}

void test_decorator_pass_through() {
  sim::ScenarioConfig config;
  config.hours = 120;
  config.fleet.group_count = 6;
  const auto scenario = sim::build_scenario(config);
  core::CocaConfig coca;
  coca.weights = scenario.weights;
  coca.schedule = core::VSchedule::constant(1.5e7);
  coca.alpha = scenario.budget.alpha();
  coca.rec_per_slot = scenario.budget.rec_per_slot();

  check(identical(simulate(scenario, coca, nullptr, false),
                  simulate(scenario, coca, nullptr, true)),
        "decorator is pass-through on a clean ladder run");

  fault::Profile profile;
  profile.outage_rate = 0.05;
  profile.outage_fraction = 0.5;
  profile.staleness_lag = 2;
  profile.seed = 5;
  fault::Schedule faults = fault::Schedule::generate(
      profile, scenario.fleet.group_count(), scenario.env.slots());
  faults.checkpoint_every = 7;
  faults.crashes = {{10}, {33}, {34}, {90}};
  faults.deadlines = {{50, 56, 0}};
  const Run plain = simulate(scenario, coca, &faults, false);
  const Run timed = simulate(scenario, coca, &faults, true);
  check(plain.result.faults.crash_restarts == 4 &&
            plain.result.faults.fallback_activations > 0,
        "fault schedule exercises crash/restore and deadline fallback");
  check(identical(plain, timed),
        "decorator is pass-through under outages, staleness, deadlines and "
        "crash/restore");

  core::CocaConfig gsd = coca;
  gsd.engine = core::P3Engine::kGsd;
  gsd.gsd.iterations = 60;
  gsd.gsd.chains = 2;
  gsd.gsd.threads = 2;
  check(identical(simulate(scenario, gsd, &faults, false),
                  simulate(scenario, gsd, &faults, true)),
        "decorator is pass-through on the GSD engine");
}

void test_tail_rule() {
  using perfbench::tail;
  const auto samples = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  check(!tail(samples(9)).has_value(), "no tail below 100 samples");
  check(!tail(samples(99)).has_value(), "no tail at 99 samples");
  struct Case {
    std::size_t n;
    double percentile;
    double value;
  };
  for (const Case& c : {Case{100, 90.0, 90.0}, Case{168, 90.0, 152.0},
                        Case{999, 90.0, 900.0}, Case{1000, 99.0, 990.0},
                        Case{26280, 99.9, 26254.0}, Case{99999, 99.9, 99900.0},
                        Case{100000, 99.99, 99990.0}}) {
    const auto t = tail(samples(c.n));
    const std::string label = "tail rule at n=" + std::to_string(c.n);
    check(t.has_value(), label + ": has a tail");
    if (!t) continue;
    check(std::abs(t->percentile - c.percentile) < 1e-9,
          label + ": percentile " + std::to_string(t->percentile));
    check(t->value == c.value, label + ": value " + std::to_string(t->value));
    check(t->n == c.n, label + ": n");
    check(static_cast<double>(c.n) - t->value >= 10.0,
          label + ": at least 10 samples beyond");
  }
}

void test_metric_table() {
  std::set<std::string> names;
  bool has_setup = false;
  const auto visit = [&](const std::vector<perfbench::MetricDef>& defs) {
    for (const auto& def : defs) {
      check(perfbench::valid_metric_name(def.name),
            std::string("metric name ") + def.name);
      check(perfbench::valid_unit(def.unit),
            std::string("unit of ") + def.name);
      check(std::string(def.better) == "lower" ||
                std::string(def.better) == "higher",
            std::string("direction of ") + def.name);
      check(names.insert(def.name).second,
            std::string("metric used once: ") + def.name);
    }
  };
  visit(perfbench::end_to_end_metrics());
  visit(perfbench::per_layer_metrics());
  for (const auto& def : perfbench::end_to_end_metrics()) {
    if (std::string(def.name) == "setup_s") {
      has_setup = std::string(def.unit) == "s" &&
                  std::string(def.better) == "lower";
    }
  }
  check(has_setup, "end_to_end has setup_s in s, lower is better");
  check(!perfbench::valid_metric_name("bad name"), "space rejected");
  check(!perfbench::valid_metric_name(".x"), "leading dot rejected");
  check(!perfbench::valid_unit(""), "empty unit rejected");
}

void test_seed_streams() {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    for (std::uint64_t stream = 0; stream < 40; ++stream) {
      seeds.insert(perfbench::derive_seed(seed, stream));
    }
  }
  check(seeds.size() == 120, "derived seeds are distinct across streams");
  check(perfbench::derive_seed(7, 3) == perfbench::derive_seed(7, 3),
        "derived seeds are a pure function");
}

void test_span_self_time() {
  perfbench::SpanRecorder recorder;
  {
    const perfbench::SpanScope scope(&recorder);
    const perfbench::LayerSpan root("bench.rep");
    for (int i = 0; i < 3; ++i) {
      const perfbench::LayerSpan child("core.plan");
      const perfbench::LayerSpan grandchild("opt.inner");
    }
  }
  const auto totals = recorder.totals();
  check(totals.at("core.plan").count == 3, "three child spans");
  const auto& root = totals.at("bench.rep");
  const auto& child = totals.at("core.plan");
  const auto& leaf = totals.at("opt.inner");
  check(std::abs(root.total_s - root.self_s - child.total_s) < 1e-12,
        "root self time excludes its children");
  check(std::abs(child.total_s - child.self_s - leaf.total_s) < 1e-12,
        "child self time excludes its children");
  check(perfbench::active_recorder() == nullptr, "scope uninstalls");
}

}  // namespace

int main() {
  test_decorator_pass_through();
  test_tail_rule();
  test_metric_table();
  test_seed_streams();
  test_span_self_time();
  std::printf("perfbench self-test: %s (%d failure%s)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
