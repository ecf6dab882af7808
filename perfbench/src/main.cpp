// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <annual|gsd_online|des_tail|faulted_ops>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --list-metrics
//
// Sets the workload up five times (setup_s is the median), then repeats it
// until --seconds have passed (at least twice).  Times are the fastest
// repetition: on a shared machine, slow phases lasting seconds inflate
// whole repetitions (CPU time tracks wall time, so it is not preemption),
// and the fastest one repeats best between runs.  With
// --trace 1 it also runs one repetition under the span recorder, plus a
// 1-thread repetition for 2-thread workloads, and prints the per-layer
// metrics instead of the end-to-end ones.  The last stdout line is the JSON
// result; the exit code is 1 when an output-correctness check failed.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupRepeats = 5;
constexpr int kMinReps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  bool list_metrics = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

/// Peak resident set of this process image.  getrusage's ru_maxrss would
/// carry the launching process's peak across exec, so read VmHWM instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

bool same_outputs(const RepResult& a, const RepResult& b) {
  return a.digest == b.digest && a.outputs.size() == b.outputs.size() &&
         std::memcmp(a.outputs.data(), b.outputs.data(),
                     a.outputs.size() * sizeof(double)) == 0;
}

double layer_value(const RepResult& rep, const std::string& name) {
  const auto it = rep.layer.find(name);
  return it == rep.layer.end() ? 0.0 : it->second;
}

/// Per-layer metrics of the traced repetition (0 where the workload never
/// calls the layer).  Call times and counts come from the repetition's own
/// accounting; the spans add what needs the tree: self times and coverage.
std::map<std::string, double> per_layer(
    const RepResult& traced, const std::map<std::string, SpanTotals>& spans,
    double run_s, double traced_run_s) {
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const ControllerStats& coca = traced.coca;

  std::map<std::string, double> m;
  for (const MetricDef& def : per_layer_metrics()) {
    m[def.name] = layer_value(traced, def.name);
  }
  m["sim.self_s"] = span("sim.run_simulation").self_s;
  m["sim.slots_per_s"] = ratio(m["sim.slots"], m["sim.run_simulation_s"]);
  m["core.probe_s"] =
      ratio(span("core.probe").total_s, m["core.calibrate_probes"]);
  const double plan_calls = static_cast<double>(coca.plan_us.size());
  m["core.plan_s"] = coca.plan_s;
  m["core.plan_calls"] = plan_calls;
  m["core.plan_p50_us"] = median(coca.plan_us);
  const auto plan_tail = tail(coca.plan_us);
  m["core.plan_tail_ms"] = plan_tail ? plan_tail->value / 1000.0 : 0.0;
  m["core.observe_s"] = coca.observe_s;
  m["core.checkpoint_s"] = coca.checkpoint_s;
  m["core.checkpoints"] = static_cast<double>(coca.checkpoints);
  m["core.ckpt_bytes"] = static_cast<double>(coca.checkpoint_bytes);
  m["core.restore_s"] = coca.restore_s;
  m["core.restores"] = static_cast<double>(coca.restores);
  const double evaluations = static_cast<double>(coca.evaluations);
  m["opt.evaluations"] = evaluations;
  m["opt.evals_per_decide"] = ratio(evaluations, plan_calls);
  m["opt.gsd_accept_rate"] =
      ratio(static_cast<double>(coca.accepted), evaluations);
  const SpanTotals root = span("bench.rep");
  m["bench.span_coverage"] = ratio(root.total_s - root.self_s, root.total_s);
  m["bench.trace_overhead_pct"] = 100.0 * (traced_run_s - run_s) / run_s;
  return m;
}

/// Self time per span name and per layer (the name's first component).
void print_self_times(const std::map<std::string, SpanTotals>& spans,
                      double root_s) {
  std::printf("\nself time by span (traced repetition, %.4f s):\n", root_s);
  std::printf("  %-36s %8s %12s %12s %7s\n", "span", "count", "total_s",
              "self_s", "self%");
  std::map<std::string, double> by_layer;
  for (const auto& [name, totals] : spans) {
    std::printf("  %-36s %8lld %12.6f %12.6f %6.2f%%\n", name.c_str(),
                static_cast<long long>(totals.count), totals.total_s,
                totals.self_s, 100.0 * totals.self_s / root_s);
    by_layer[name.substr(0, name.find('.'))] += totals.self_s;
  }
  std::printf("self time by layer:\n");
  for (const auto& [layer, self_s] : by_layer) {
    std::printf("  %-12s %12.6f s %6.2f%%\n", layer.c_str(), self_s,
                100.0 * self_s / root_s);
  }
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.seed, args.out_dir);
  if (!workload) throw std::invalid_argument("unknown workload " + args.workload);
  std::filesystem::create_directories(args.out_dir);
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.trace ? 1 : 0);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  std::vector<RepResult> reps;
  std::vector<double> run_s;
  const std::int64_t begin = now_ns();
  while (static_cast<int>(reps.size()) < kMinReps ||
         static_cast<double>(now_ns() - begin) * 1e-9 < args.seconds) {
    const std::int64_t start = now_ns();
    reps.push_back(workload->run(workload->threads()));
    run_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  std::vector<std::string> failures;
  std::int64_t attempted = 0, infeasible_slots = 0, shed_slots = 0;
  std::vector<double> p50_ms, tail_ms;
  std::optional<Tail> first_tail;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& rep = reps[i];
    attempted += rep.decided_slots;
    infeasible_slots += rep.infeasible_slots;
    shed_slots += rep.shed_slots;
    failures.insert(failures.end(), rep.check_failures.begin(),
                    rep.check_failures.end());
    if (!same_outputs(rep, reps.front())) {
      failures.push_back("repetition " + std::to_string(i) +
                         " outputs differ from repetition 0");
    }
    p50_ms.push_back(median(rep.coca.plan_us) / 1000.0);
    const auto t = tail(rep.coca.plan_us);
    if (!t) {
      failures.push_back("fewer than 100 plan() calls in a repetition");
      continue;
    }
    if (!first_tail) first_tail = t;
    tail_ms.push_back(t->value / 1000.0);
  }
  const RepResult& first = reps.front();

  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setup_s);
  e2e["run_s"] = *std::min_element(run_s.begin(), run_s.end());
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["decide_p50_ms"] = *std::min_element(p50_ms.begin(), p50_ms.end());
  e2e["cost_vs_unaware"] = first.cost_vs_unaware;
  e2e["brown_use_pct"] = first.brown_use_pct;
  std::map<std::string, double> layers;

  if (args.trace) {
    SpanRecorder recorder;
    RepResult traced;
    double traced_run_s = 0.0;
    {
      const SpanScope scope(&recorder);
      const LayerSpan root("bench.rep", &traced_run_s);
      traced = workload->run(workload->threads());
    }
    failures.insert(failures.end(), traced.check_failures.begin(),
                    traced.check_failures.end());
    if (!same_outputs(traced, first)) {
      failures.push_back("traced repetition outputs differ from untraced");
    }
    const auto spans = recorder.totals();
    layers = per_layer(traced, spans, median(run_s), traced_run_s);
    if (workload->threads() > 1) {
      const RepResult serial = workload->run(1);
      failures.insert(failures.end(), serial.check_failures.begin(),
                      serial.check_failures.end());
      if (!same_outputs(serial, first)) {
        failures.push_back("1-thread outputs differ from 2-thread outputs");
      }
      std::vector<double> plan_s, replay_s;
      for (const RepResult& rep : reps) {
        plan_s.push_back(rep.coca.plan_s);
        replay_s.push_back(layer_value(rep, "des.replay_s"));
      }
      if (args.workload == "gsd_online") {
        layers["opt.gsd_thread_scaling"] = serial.coca.plan_s / median(plan_s);
      } else {
        layers["des.thread_scaling"] =
            layer_value(serial, "des.replay_s") / median(replay_s);
      }
    }
    print_self_times(spans, traced_run_s);
    std::printf("span coverage %.4f of the traced run; tracing overhead %.2f%%\n",
                layers["bench.span_coverage"],
                layers["bench.trace_overhead_pct"]);
    const std::string path =
        args.out_dir + "/spans_" + args.workload + ".jsonl";
    std::ofstream(path) << recorder.to_jsonl();
    std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                recorder.spans().size());
  }

  // An operation is one decided slot; it fails when it drops load.  Slots
  // rescued by emergency capacity still served everything and are reported
  // as infeasible, not failed.  A failed check counts as one failure.
  const std::int64_t failed =
      shed_slots + static_cast<std::int64_t>(failures.size());
  std::printf("\nrepetitions %zu; run_s per repetition:", reps.size());
  for (const double s : run_s) std::printf(" %.4f", s);
  std::printf("\nsetup_s samples:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n\nend-to-end (tracing off):\n");
  std::printf("  %-20s %14.6f s\n", "setup_s", e2e["setup_s"]);
  std::printf("  %-20s %14.6f s  (median repetition %.6f s)\n", "run_s",
              e2e["run_s"], median(run_s));
  std::printf("  %-20s %14.3f MB\n", "peak_rss_mb", e2e["peak_rss_mb"]);
  std::printf("  %-20s %14.6f ms  (median repetition %.6f ms)\n",
              "decide_p50_ms", e2e["decide_p50_ms"], median(p50_ms));
  if (first_tail) {
    // Too noisy to bound (p99.9 of ladder plans moved 2x between runs of
    // one seed); the traced run reports it as core.plan_tail_ms.
    std::printf("  %-20s %14.6f ms  (p%g over n=%zu plan() calls per "
                "repetition, median of %zu; unbounded)\n",
                "decide_tail_ms", median(tail_ms), first_tail->percentile,
                first_tail->n, tail_ms.size());
  }
  std::printf("  %-20s %14.4f USD/h\n", "cost_usd_per_h", first.cost_usd_per_h);
  std::printf("  %-20s %14.6f\n", "cost_vs_unaware", first.cost_vs_unaware);
  std::printf("  %-20s %14.4f %%  (carbon_excess_pct %.4f %%)\n",
              "brown_use_pct", first.brown_use_pct,
              std::max(0.0, first.brown_use_pct - 100.0));
  if (args.workload == "des_tail") {
    std::vector<double> mreq;
    for (const RepResult& rep : reps) {
      mreq.push_back(layer_value(rep, "des.replay_mreq_per_s"));
    }
    std::printf("  %-20s %14.4f Mreq/s (host)\n", "replay_mreq_per_s",
                median(mreq));
    std::printf("  %-20s %14.6f s (simulated)\n", "sojourn_p99_s",
                layer_value(first, "des.sojourn_p99_s"));
  }
  std::printf("  %-20s %14.6f  ((%lld infeasible incl. %lld shed slots + "
              "%zu failed checks) / %lld decided slots)\n",
              "failed_slot_frac",
              static_cast<double>(infeasible_slots +
                                  static_cast<std::int64_t>(failures.size())) /
                  static_cast<double>(attempted),
              static_cast<long long>(infeasible_slots),
              static_cast<long long>(shed_slots), failures.size(),
              static_cast<long long>(attempted));
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, double>& metrics = args.trace ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name + "\": {\"value\": " +
            number(metrics[defs[i].name]) + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.list_metrics) {
      for (const MetricDef& def : end_to_end_metrics()) {
        std::printf("end_to_end %s %s %s\n", def.name, def.unit, def.better);
      }
      for (const MetricDef& def : per_layer_metrics()) {
        std::printf("per_layer %s %s %s\n", def.name, def.unit, def.better);
      }
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
