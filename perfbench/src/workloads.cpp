#include "workloads.hpp"

#include <filesystem>
#include <optional>

#include "baselines/offline_opt.hpp"
#include "baselines/perfect_hp.hpp"
#include "core/calibration.hpp"
#include "core/coca_controller.hpp"
#include "des/shard_runner.hpp"
#include "fault/schedule.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace coca;

/// V for the workloads that skip calibration: the order of the V* that
/// calibration finds on the annual scenario.
constexpr double kFixedV = 1.5e7;

/// Generator streams derived from the workload seed.
enum Stream : std::uint64_t {
  kScenarioStream = 0,
  kFleetStream = 1,
  kGsdStream = 2,
  kReplayStream = 3,
  kFaultStream = 16,  ///< + profile index (fault::Profile.seed)
  kFaultEventStream = 32,  ///< + profile index (deadline window, crashes)
};

sim::ScenarioConfig scenario_config(std::uint64_t seed, std::size_t hours,
                                    std::size_t groups) {
  sim::ScenarioConfig config;
  config.hours = hours;
  config.fleet.group_count = groups;
  config.seed = derive_seed(seed, kScenarioStream);
  config.fleet.seed = derive_seed(seed, kFleetStream);
  return config;
}

/// The controller configuration of sim::run_coca_constant_v.
core::CocaConfig coca_config(const sim::Scenario& scenario, double v) {
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(v);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = scenario.budget.rec_per_slot();
  return config;
}

class Digest {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001B3ULL;
    }
  }
  void add(double value) { add(&value, sizeof value); }
  void add(const std::vector<dc::Allocation>& allocations) {
    for (const auto& alloc : allocations) {
      for (const auto& group : alloc) {
        const std::uint64_t level = group.level;
        add(&level, sizeof level);
        add(group.active);
        add(group.load);
      }
    }
  }
  void add(const sim::Metrics& metrics) {
    for (const double cost : metrics.cost_series()) add(cost);
    for (const double brown : metrics.brown_series()) add(brown);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV-1a
};

/// Runs `inner` through the slot simulator behind the timing decorator.
sim::SimResult run_timed(const sim::Scenario& scenario,
                         core::SlotController& inner, const std::string& layer,
                         ControllerStats& stats,
                         const sim::SimOptions& options, RepResult& rep) {
  TimedController timed(inner, layer, stats);
  rep.layer["sim.slots"] += static_cast<double>(scenario.env.slots());
  const LayerSpan span("sim.run_simulation",
                       &rep.layer["sim.run_simulation_s"]);
  return sim::run_simulation(scenario.fleet, scenario.env, timed,
                             scenario.weights, options);
}

/// Counts one COCA run's slots into the repetition's operation totals.
void account(RepResult& rep, const sim::SimResult& result) {
  rep.decided_slots += static_cast<std::int64_t>(result.metrics.slot_count());
  rep.infeasible_slots += static_cast<std::int64_t>(result.infeasible_slots);
  rep.shed_slots += result.faults.shed_slots;
  rep.layer["sim.infeasible_slots"] +=
      static_cast<double>(result.infeasible_slots);
}

/// Decision quality of `runs` COCA runs over the scenario's horizon.
void set_quality(RepResult& rep, const sim::Scenario& scenario,
                 double total_cost, double brown_kwh, double runs = 1.0) {
  rep.cost_usd_per_h =
      total_cost / runs / static_cast<double>(scenario.env.slots());
  rep.cost_vs_unaware =
      total_cost / runs / scenario.unaware_cost.value();  // UNITS: ratio
  rep.brown_use_pct =
      100.0 * brown_kwh / runs / scenario.budget.total_allowance();
}

// ---------------------------------------------------------------------------

/// The examples/annual_report pipeline: calibrate V, then COCA at V*,
/// carbon-unaware, PerfectHP and the offline optimum, all single-threaded.
class Annual final : public Workload {
 public:
  explicit Annual(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    scenario_.reset();
    scenario_.emplace(sim::build_scenario(scenario_config(seed_, 4380, 16)));
  }

  RepResult run(std::size_t) override {
    const sim::Scenario& s = *scenario_;
    const double allowance = s.budget.total_allowance();
    RepResult rep;
    double probes = 0.0;
    core::VCalibrationResult v_star;
    {
      const LayerSpan span("core.calibrate_v", &rep.layer["core.calibrate_s"]);
      v_star = core::calibrate_v(
          [&](double v) {
            const LayerSpan probe("core.probe");
            probes += 1.0;
            core::CocaController controller(s.fleet, coca_config(s, v));
            const auto result = run_timed(s, controller, "core", rep.coca, {},
                                          rep);
            account(rep, result);
            return result.metrics.total_brown_kwh();
          },
          // annual_report's bracket, but no early stop: every seed runs
          // the same 10 probes, so run_s compares equal work across seeds.
          allowance,
          {.v_lo = 1.0, .v_hi = 1e10, .usage_rel_tol = 0.0, .max_runs = 10});
    }
    rep.layer["core.calibrate_probes"] = probes;

    std::vector<dc::Allocation> executed;
    sim::SimOptions options;
    options.record_allocations = &executed;
    core::CocaController controller(s.fleet, coca_config(s, v_star.v));
    const auto coca =
        run_timed(s, controller, "core", rep.coca, options, rep);
    account(rep, coca);

    sim::SimResult unaware;
    {
      const LayerSpan span("baselines.unaware",
                           &rep.layer["baselines.unaware_s"]);
      unaware = sim::run_carbon_unaware(s.fleet, s.env, s.weights);
    }
    ControllerStats hp_stats;
    sim::SimResult hp;
    {
      const LayerSpan span("baselines.perfect_hp",
                           &rep.layer["baselines.perfect_hp_s"]);
      baselines::PerfectHpController hp_controller(s.fleet, s.weights,
                                                   s.env.workload, s.budget);
      hp = run_timed(s, hp_controller, "baselines.perfect_hp", hp_stats, {},
                     rep);
    }
    rep.layer["baselines.perfect_hp_plan_p50_us"] = median(hp_stats.plan_us);
    baselines::OfflineSchedule opt;
    {
      const LayerSpan span("baselines.offline_opt",
                           &rep.layer["baselines.offline_opt_s"]);
      opt = baselines::solve_offline_opt(
          s.fleet, s.env.workload.values(), s.env.onsite_kw.values(),
          s.env.price.values(), s.weights, allowance);
    }

    const double coca_brown = coca.metrics.total_brown_kwh();
    rep.outputs = {v_star.v,
                   static_cast<double>(v_star.runs),
                   coca.metrics.total_cost(),
                   coca_brown,
                   unaware.metrics.total_cost(),
                   unaware.metrics.total_brown_kwh(),
                   hp.metrics.total_cost(),
                   hp.metrics.total_brown_kwh(),
                   opt.total_cost.value(),  // UNITS: reporting boundary
                   opt.total_brown_kwh.value()};  // UNITS: reporting boundary
    Digest digest;
    digest.add(executed);
    digest.add(coca.metrics);
    rep.digest = digest.value();
    set_quality(rep, s, coca.metrics.total_cost(), coca_brown);
    if (coca_brown > allowance) {
      rep.check_failures.push_back(
          "annual: calibrated COCA brown energy " + std::to_string(coca_brown) +
          " kWh exceeds the allowance " + std::to_string(allowance) + " kWh");
    }
    return rep;
  }

 private:
  std::uint64_t seed_;
  std::optional<sim::Scenario> scenario_;
};

// ---------------------------------------------------------------------------

/// COCA with the GSD engine at the paper's Sec. 5.2.3 shape (200 groups,
/// 500 iterations), 2 chains, at fixed V over two weeks (one week left the
/// cost and brown-energy ratios seed-dependent by 7-12%).
class GsdOnline final : public Workload {
 public:
  static constexpr std::size_t kHours = 336;

  explicit GsdOnline(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 2; }

  void setup() override {
    scenario_.reset();
    scenario_.emplace(
        sim::build_scenario(scenario_config(seed_, kHours, 200)));
  }

  RepResult run(std::size_t threads) override {
    const sim::Scenario& s = *scenario_;
    RepResult rep;
    obs::Registry registry;
    const obs::GlobalRegistryScope registry_scope(&registry);

    core::CocaConfig config = coca_config(s, kFixedV);
    config.engine = core::P3Engine::kGsd;
    config.gsd.iterations = 500;
    config.gsd.chains = 2;
    config.gsd.threads = static_cast<int>(threads);
    config.gsd.seed = derive_seed(seed_, kGsdStream);
    core::CocaController controller(s.fleet, config);
    std::vector<dc::Allocation> executed;
    sim::SimOptions options;
    options.record_allocations = &executed;
    const auto result = run_timed(s, controller, "core", rep.coca, options,
                                  rep);
    account(rep, result);

    rep.outputs = {result.metrics.total_cost(),
                   result.metrics.total_brown_kwh(),
                   static_cast<double>(rep.coca.evaluations),
                   static_cast<double>(rep.coca.accepted)};
    Digest digest;
    digest.add(executed);
    digest.add(result.metrics);
    rep.digest = digest.value();
    set_quality(rep, s, result.metrics.total_cost(),
                result.metrics.total_brown_kwh());
    rep.layer["util.pool_queue_high_water"] =
        registry.gauge_max("pool.queue_high_water");
    return rep;
  }

 private:
  std::uint64_t seed_;
  std::optional<sim::Scenario> scenario_;
};

// ---------------------------------------------------------------------------

/// One recorded COCA month at fixed V, replayed at request level by
/// des::ShardRunner with one shard per group on 2 threads.
class DesTail final : public Workload {
 public:
  static constexpr std::size_t kGroups = 16;

  explicit DesTail(std::uint64_t seed) : seed_(seed) {}

  std::size_t threads() const override { return 2; }

  void setup() override {
    scenario_.reset();
    scenario_.emplace(sim::build_scenario(scenario_config(seed_, 720, kGroups)));
  }

  RepResult run(std::size_t threads) override {
    const sim::Scenario& s = *scenario_;
    RepResult rep;
    obs::Registry registry;
    const obs::GlobalRegistryScope registry_scope(&registry);

    std::vector<dc::Allocation> executed;
    sim::SimResult recorded;
    {
      const LayerSpan span("des.record_sim", &rep.layer["des.record_sim_s"]);
      core::CocaController controller(s.fleet, coca_config(s, kFixedV));
      sim::SimOptions options;
      options.record_allocations = &executed;
      recorded = run_timed(s, controller, "core", rep.coca, options, rep);
    }
    account(rep, recorded);

    des::ShardReplayResult replay;
    {
      const LayerSpan span("des.replay", &rep.layer["des.replay_s"]);
      des::ShardReplayConfig config;
      config.shards = kGroups;
      config.threads = threads;
      config.seconds_per_slot = 60.0;
      config.seed = derive_seed(seed_, kReplayStream);
      des::ShardRunner runner(s.fleet, config);
      replay = runner.replay(executed);
    }

    const double requests = static_cast<double>(replay.requests);
    rep.layer["des.requests"] = requests;
    rep.layer["des.replay_mreq_per_s"] =
        requests / 1e6 / rep.layer["des.replay_s"];
    rep.layer["des.sojourn_p99_s"] = replay.quantile(0.99);
    rep.layer["util.pool_queue_high_water"] =
        registry.gauge_max("pool.queue_high_water");

    rep.outputs = {recorded.metrics.total_cost(),
                   recorded.metrics.total_brown_kwh(),
                   requests,
                   static_cast<double>(replay.completions),
                   static_cast<double>(replay.in_flight),
                   replay.total_response_seconds,
                   replay.area_jobs,
                   replay.quantile(0.50),
                   replay.quantile(0.99),
                   replay.quantile(0.999)};
    Digest digest;
    digest.add(executed);
    digest.add(replay.sojourn.counts().data(),
               replay.sojourn.counts().size() * sizeof(std::uint64_t));
    rep.digest = digest.value();
    set_quality(rep, s, recorded.metrics.total_cost(),
                recorded.metrics.total_brown_kwh());
    if (replay.completions + replay.in_flight != replay.requests) {
      rep.check_failures.push_back(
          "des_tail: completions " + std::to_string(replay.completions) +
          " + in_flight " + std::to_string(replay.in_flight) +
          " != requests " + std::to_string(replay.requests));
    }
    return rep;
  }

 private:
  std::uint64_t seed_;
  std::optional<sim::Scenario> scenario_;
};

// ---------------------------------------------------------------------------

/// A full year of COCA at fixed V under several seeded fault schedules, with
/// the slot trace and the health monitor attached and the JSONL written out.
class FaultedOps final : public Workload {
 public:
  static constexpr std::size_t kGroups = 16;
  static constexpr std::size_t kProfiles = 3;

  FaultedOps(std::uint64_t seed, std::string out_dir)
      : seed_(seed), out_dir_(std::move(out_dir)) {}

  void setup() override {
    scenario_.reset();
    scenario_.emplace(
        sim::build_scenario(scenario_config(seed_, 8760, kGroups)));
  }

  RepResult run(std::size_t) override {
    const sim::Scenario& s = *scenario_;
    const std::size_t slots = s.env.slots();
    RepResult rep;
    obs::Registry registry;
    const obs::GlobalRegistryScope registry_scope(&registry);
    Digest digest;
    double cost = 0.0, brown = 0.0;
    for (std::size_t i = 0; i < kProfiles; ++i) {
      fault::Schedule schedule;
      {
        const LayerSpan span("fault.schedule_generate",
                             &rep.layer["fault.schedule_s"]);
        fault::Profile profile;
        profile.outage_rate = 0.002 * static_cast<double>(i + 1);
        profile.mean_outage_slots = 6.0;
        profile.outage_fraction = 0.5;
        profile.staleness_lag = i + 1;
        profile.seed = derive_seed(seed_, kFaultStream + i);
        schedule = fault::Schedule::generate(profile, kGroups, slots);
      }
      add_events(schedule, i, slots);

      obs::SlotTraceWriter writer;
      obs::HealthMonitor health(sim::default_health_config(s), &writer);
      sim::SimOptions options;
      options.faults = &schedule;
      options.trace = &writer;
      options.health = &health;
      core::CocaController controller(s.fleet, coca_config(s, kFixedV));
      const auto result =
          run_timed(s, controller, "core", rep.coca, options, rep);
      account(rep, result);

      const std::string path =
          out_dir_ + "/faulted_ops_" + std::to_string(i) + ".jsonl";
      {
        const LayerSpan span("obs.trace_write",
                             &rep.layer["obs.trace_write_s"]);
        writer.write_jsonl_file(path);
      }

      double events = 0.0, unexpected = 0.0;
      for (const obs::HealthEvent& event : health.events()) {
        // Timing-rule events fire off wall-clock readings; they are info
        // level and their existence varies run to run.
        if (event.timing) continue;
        events += 1.0;
        if (event.level != obs::HealthLevel::kInfo && !event.expected) {
          unexpected += 1.0;
        }
      }
      rep.layer["obs.health_events"] += events;
      rep.layer["obs.health_unexpected"] += unexpected;
      rep.layer["obs.trace_records"] += static_cast<double>(writer.size());
      rep.layer["obs.trace_bytes"] +=
          static_cast<double>(std::filesystem::file_size(path));
      rep.layer["fault.degraded_slots"] +=
          static_cast<double>(result.faults.degraded_slots);
      rep.layer["fault.stale_inputs"] +=
          static_cast<double>(result.faults.stale_inputs);
      rep.layer["fault.fallbacks"] +=
          static_cast<double>(result.faults.fallback_activations);
      rep.layer["fault.crash_restarts"] +=
          static_cast<double>(result.faults.crash_restarts);

      cost += result.metrics.total_cost();
      brown += result.metrics.total_brown_kwh();
      rep.outputs.insert(
          rep.outputs.end(),
          {result.metrics.total_cost(), result.metrics.total_brown_kwh(),
           static_cast<double>(result.infeasible_slots),
           static_cast<double>(result.faults.degraded_slots),
           static_cast<double>(result.faults.stale_inputs),
           static_cast<double>(result.faults.fallback_activations),
           static_cast<double>(result.faults.shed_slots),
           static_cast<double>(result.faults.crash_restarts),
           static_cast<double>(result.faults.checkpoints_taken), events,
           unexpected});
      digest.add(result.metrics);
    }
    rep.digest = digest.value();
    set_quality(rep, s, cost, brown, static_cast<double>(kProfiles));

    const double dropped =
        static_cast<double>(registry.counter_value("obs.trace_dropped"));
    rep.layer["obs.trace_dropped"] = dropped;
    if (dropped != 0.0) {
      rep.check_failures.push_back("faulted_ops: obs.trace_dropped = " +
                                   std::to_string(dropped));
    }
    if (rep.layer["obs.health_unexpected"] != 0.0) {
      rep.check_failures.push_back(
          "faulted_ops: obs.health_unexpected = " +
          std::to_string(rep.layer["obs.health_unexpected"]));
    }
    return rep;
  }

 private:
  /// A solve-deadline window and controller crashes at a checkpoint
  /// cadence, placed from the workload seed.
  void add_events(fault::Schedule& schedule, std::size_t profile,
                  std::size_t slots) const {
    std::uint64_t stream = derive_seed(seed_, kFaultEventStream + profile);
    const auto next_slot = [&](std::size_t span) {
      stream = derive_seed(stream, 0);
      return static_cast<std::size_t>(stream % span);
    };
    const std::size_t window = 24;
    const std::size_t begin = next_slot(slots - window);
    schedule.deadlines.push_back({begin, begin + window, 0});
    schedule.checkpoint_every = 24;
    for (int c = 0; c < 4; ++c) schedule.crashes.push_back({next_slot(slots)});
  }

  std::uint64_t seed_;
  std::string out_dir_;
  std::optional<sim::Scenario> scenario_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"annual", "gsd_online",
                                                 "des_tail", "faulted_ops"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "annual") return std::make_unique<Annual>(seed);
  if (name == "gsd_online") return std::make_unique<GsdOnline>(seed);
  if (name == "des_tail") return std::make_unique<DesTail>(seed);
  if (name == "faulted_ops") return std::make_unique<FaultedOps>(seed, out_dir);
  return nullptr;
}

}  // namespace perfbench
