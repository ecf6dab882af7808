#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

std::optional<Tail> tail(std::vector<double> values, std::size_t min_beyond) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::optional<Tail> best;
  // Percentile 100*(1 - 1/scale) has floor(n/scale) samples above its
  // nearest rank n - floor(n/scale); integer arithmetic keeps it exact.
  for (std::size_t scale = 10; n >= min_beyond * scale; scale *= 10) {
    const std::size_t rank = n - n / scale;
    best = Tail{100.0 - 100.0 / static_cast<double>(scale), values[rank - 1],
                n};
  }
  return best;
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  std::uint64_t z = workload_seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s", "lower"},
      {"run_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"decide_p50_ms", "ms", "lower"},
      {"cost_vs_unaware", "ratio", "lower"},
      {"brown_use_pct", "%", "lower"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"sim.run_simulation_s", "s", "lower"},
      {"sim.slots", "count", "higher"},
      {"sim.slots_per_s", "1/s", "higher"},
      {"sim.self_s", "s", "lower"},
      {"sim.infeasible_slots", "count", "lower"},
      {"core.calibrate_s", "s", "lower"},
      {"core.calibrate_probes", "count", "lower"},
      {"core.probe_s", "s", "lower"},
      {"core.plan_s", "s", "lower"},
      {"core.plan_calls", "count", "higher"},
      {"core.plan_p50_us", "us", "lower"},
      {"core.plan_tail_ms", "ms", "lower"},
      {"core.observe_s", "s", "lower"},
      {"core.checkpoint_s", "s", "lower"},
      {"core.checkpoints", "count", "lower"},
      {"core.ckpt_bytes", "bytes", "lower"},
      {"core.restore_s", "s", "lower"},
      {"core.restores", "count", "lower"},
      {"opt.evaluations", "count", "lower"},
      {"opt.evals_per_decide", "count", "lower"},
      {"opt.gsd_accept_rate", "fraction", "higher"},
      {"opt.gsd_thread_scaling", "ratio", "higher"},
      {"baselines.unaware_s", "s", "lower"},
      {"baselines.perfect_hp_s", "s", "lower"},
      {"baselines.perfect_hp_plan_p50_us", "us", "lower"},
      {"baselines.offline_opt_s", "s", "lower"},
      {"des.record_sim_s", "s", "lower"},
      {"des.replay_s", "s", "lower"},
      {"des.requests", "count", "higher"},
      {"des.replay_mreq_per_s", "Mreq/s", "higher"},
      {"des.sojourn_p99_s", "sim_s", "lower"},
      {"des.thread_scaling", "ratio", "higher"},
      {"fault.schedule_s", "s", "lower"},
      {"fault.degraded_slots", "count", "lower"},
      {"fault.stale_inputs", "count", "lower"},
      {"fault.fallbacks", "count", "lower"},
      {"fault.crash_restarts", "count", "lower"},
      {"obs.trace_records", "count", "higher"},
      {"obs.trace_bytes", "bytes", "lower"},
      {"obs.trace_write_s", "s", "lower"},
      {"obs.health_events", "count", "lower"},
      {"obs.health_unexpected", "count", "lower"},
      {"obs.trace_dropped", "count", "lower"},
      {"util.pool_queue_high_water", "count", "lower"},
      {"bench.span_coverage", "fraction", "higher"},
      {"bench.trace_overhead_pct", "%", "lower"},
  };
  return metrics;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
