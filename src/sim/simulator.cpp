#include "sim/simulator.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"
#include "util/units.hpp"

namespace coca::sim {

namespace {

/// Active-weighted mean speed-level index of an allocation (the "chosen
/// speed vector summary" of the slot trace).
double mean_speed_level(const dc::Allocation& alloc) {
  double servers = 0.0;
  double weighted = 0.0;
  for (const auto& a : alloc) {
    servers += a.active;
    weighted += a.active * static_cast<double>(a.level);
  }
  return servers > 0.0 ? weighted / servers : 0.0;
}

}  // namespace

SimResult run_simulation(const dc::Fleet& fleet, const Environment& env,
                         core::SlotController& controller,
                         const opt::SlotWeights& weights,
                         const SimOptions& options) {
  env.validate();
  SimResult result;
  // One record per slot: size both per-slot buffers once, up front.
  result.metrics.reserve(env.slots());
  if (options.record_allocations != nullptr) {
    options.record_allocations->reserve(options.record_allocations->size() +
                                        env.slots());
  }

  opt::SlotWeights billing = weights;
  billing.V = 1.0;
  billing.q = 0.0;

  // Fault injection is resolved once, up front; when the schedule is null or
  // empty the injector stays null and every statement below follows the
  // exact fault-free path (byte-identical runs — the empty-schedule golden
  // contract).
  std::unique_ptr<fault::Injector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    if (!options.rebalance_actual) {
      throw std::invalid_argument(
          "run_simulation: fault injection requires rebalance_actual");
    }
    injector =
        std::make_unique<fault::Injector>(fleet, *options.faults, env.slots());
  }
  fault::FaultStats& fstats = result.faults;

  // Crash resilience: checkpoint the controller (coca-ckpt-v2) every
  // `checkpoint_every` slots; a crash restores the last blob.  Controllers
  // without checkpoint support simply keep their (uncrashed) state — the
  // crash still counts as a restart.
  const bool checkpointing = injector != nullptr && injector->has_crashes() &&
                             controller.supports_checkpoint();
  std::string last_checkpoint;
  if (checkpointing) {
    last_checkpoint = controller.checkpoint(0);
    ++fstats.checkpoints_taken;
    obs::count("fault.checkpoints");
  }

  obs::count("sim.runs");
  double rec_spend_before = 0.0;

  // The health plane consumes the same per-slot record the trace sink gets,
  // so a monitor without a sink still sees every field (including solve
  // timing, which only ever feeds info-level events).
  const bool want_slot_record =
      options.trace != nullptr || options.health != nullptr;
  obs::Registry* registry = obs::global();
  std::int64_t drops_before =
      registry != nullptr ? registry->counter_value("obs.trace_dropped") : 0;
  std::int64_t last_checkpoint_slot = 0;

  std::size_t last_fleet_index = 0;
  dc::Allocation previous(fleet.group_count());
  for (std::size_t t = 0; t < env.slots(); ++t) {
    // Root of the per-slot span hierarchy: plan, billing and observe (so the
    // controller's solver and REC spans nest underneath).  One span per slot
    // keeps counts deterministic (== slot count).
    const obs::ScopedSpan slot_span("slot");
    opt::SlotInput planned_input{env.planning[t], env.onsite_kw[t],
                                 env.price[t]};

    // Resolve this slot's fault state: crash/restore, fleet swap, telemetry
    // staleness, solve deadline.  All table lookups; the span attributes the
    // (tiny, deterministic) fault-path cost in profiles of fault runs.
    const dc::Fleet* slot_fleet = &fleet;
    std::int64_t eval_budget = -1;
    std::int64_t stale_count = 0;
    bool crashed = false;
    if (injector != nullptr) {
      const obs::ScopedSpan fault_span("fault_inject");
      if (injector->crash_before(t)) {
        crashed = true;
        ++fstats.crash_restarts;
        obs::count("fault.crash_restarts");
        if (checkpointing) {
          controller.restore(last_checkpoint);
          // Restoring may roll back dynamic-REC spend already billed to the
          // run; re-anchor so the next delta is measured from the restored
          // state rather than billed negative.
          rec_spend_before = controller.diagnostics(t).rec_spend_total;
        }
      }
      const std::size_t fleet_index = injector->fleet_index_at(t);
      slot_fleet = &injector->fleet_at(t);
      if (fleet_index != last_fleet_index) {
        controller.set_fleet(*slot_fleet);
        last_fleet_index = fleet_index;
      }
      if (injector->degraded_at(t)) {
        ++fstats.degraded_slots;
        obs::count("fault.degraded_slots");
      }
      const fault::StalenessLags lags = injector->staleness_at(t);
      if (lags.any()) {
        // Last-known-good telemetry: plan on the value from `lag` slots ago
        // (clamped to the horizon start).  Billing below still uses the true
        // slot-t environment — only the controller's view is stale.
        if (lags.lambda > 0) {
          planned_input.lambda =
              env.planning[t >= lags.lambda ? t - lags.lambda : 0];
        }
        if (lags.price > 0) {
          planned_input.price = env.price[t >= lags.price ? t - lags.price : 0];
        }
        if (lags.renewable > 0) {
          planned_input.onsite_kw =
              env.onsite_kw[t >= lags.renewable ? t - lags.renewable : 0];
        }
        stale_count = lags.stale_channels();
        fstats.stale_inputs += stale_count;
        obs::count("fault.stale_inputs", stale_count);
      }
      eval_budget = injector->evaluation_budget(t);
      controller.set_evaluation_budget(eval_budget);
    }

    // Clock reads happen only when a trace or health monitor asks for them
    // (obs boundary); the readings never influence the run.
    const std::int64_t solve_start_ns = want_slot_record ? obs::now_ns() : 0;
    opt::SlotSolution plan;
    bool fallback_used = false;
    if (eval_budget == 0) {
      // The solve deadline passed before any evaluation could run: anytime
      // fallback — reuse the previous slot's allocation clamped to the
      // surviving fleet (loads re-balanced below).
      plan.alloc = opt::clamped_to_fleet(*slot_fleet, previous);
      fallback_used = true;
      ++fstats.fallback_activations;
      obs::count("fault.fallback_activations");
    } else {
      plan = controller.plan(t, planned_input);
    }
    const std::int64_t solve_ns =
        want_slot_record ? obs::now_ns() - solve_start_ns : 0;

    const opt::SlotInput actual_input{env.workload[t], env.onsite_kw[t],
                                      env.price[t]};
    opt::SlotOutcome billed;
    dc::Allocation executed = plan.alloc;
    double shed_lambda = 0.0;
    if (options.rebalance_actual) {
      // Runtime load balancing: distribute the actual workload over the
      // planned capacity.  If planning underestimated and capacity is short,
      // fall back to the emergency all-on configuration.
      const auto balanced =
          opt::balance_loads(*slot_fleet, executed, actual_input, billing);
      if (balanced.feasible) {
        billed = balanced.outcome;
      } else {
        ++result.infeasible_slots;
        if (injector == nullptr ||
            opt::slot_feasible(*slot_fleet, env.workload[t], billing.gamma)) {
          // The forecast under-provisioned: wake just enough extra capacity
          // (proportional expansion, then speed raises), not the whole fleet.
          executed = opt::expanded_to_capacity(
              *slot_fleet, plan.alloc, env.workload[t], billing.gamma);
          auto fallback =
              opt::balance_loads(*slot_fleet, executed, actual_input, billing);
          if (!fallback.feasible) {
            executed =
                opt::all_on_max(*slot_fleet, env.workload[t], billing.gamma);
            fallback =
                opt::balance_loads(*slot_fleet, executed, actual_input, billing);
          }
          billed = fallback.outcome;
        } else {
          // Degraded-mode shed: the surviving fleet cannot serve lambda even
          // with everything on.  Serve the gamma-capped maximum, shed the
          // rest, and bill the shed load's waiting as delay cost (beta
          // dollars per job-hour, `shed_jobs_per_rps` jobs per unit rate).
          // The all-groups-down slot is the limit case: zero served load,
          // all-off allocation, the whole lambda shed — and the queue still
          // updates on the billed (switching-only) brown energy.
          executed =
              opt::all_on_max(*slot_fleet, env.workload[t], billing.gamma);
          const double served = dc::total_load(executed);
          billed = opt::evaluate(*slot_fleet, executed,
                                 {served, env.onsite_kw[t], env.price[t]},
                                 billing);
          shed_lambda = env.workload[t] - served;
          const double shed_jobs = injector->shed_jobs_per_rps() * shed_lambda;
          const double shed_delay = billing.beta * shed_jobs * billing.slot_hours;
          billed.delay_jobs += shed_jobs;
          billed.delay_cost += shed_delay;
          billed.total_cost += shed_delay;
          billed.feasible = false;
          ++fstats.shed_slots;
          fstats.shed_lambda_total += shed_lambda;
          obs::count("fault.shed_slots");
        }
      }
    } else {
      billed = opt::evaluate(fleet, executed, actual_input, billing);
      if (!billed.feasible) ++result.infeasible_slots;
    }

    // Switching energy: billed as brown energy at the slot's price (the
    // paper folds wear-and-tear and transition waste into kWh).
    const double toggles = dc::toggles_between(previous, executed);
    const double switch_kwh =
        dc::switching_energy_kwh(options.switching, previous, executed);
    billed.brown_kwh += switch_kwh;
    billed.electricity_cost += env.price[t] * switch_kwh;
    billed.total_cost += env.price[t] * switch_kwh;

    controller.observe(t, billed, env.offsite_kwh[t]);

    // Post-slot controller state: queue, V, solver internals, and the
    // cumulative dynamic REC spend — billed here so controller-side
    // purchases reach the run's cost metrics (they are real dollars).
    const core::SlotDiagnostics diag = controller.diagnostics(t);
    const double rec_cost = diag.rec_spend_total - rec_spend_before;
    rec_spend_before = diag.rec_spend_total;

    if (checkpointing && (t + 1) % injector->checkpoint_every() == 0) {
      last_checkpoint = controller.checkpoint(t + 1);
      last_checkpoint_slot = static_cast<std::int64_t>(t) + 1;
      ++fstats.checkpoints_taken;
      obs::count("fault.checkpoints");
    }

    // Lift the solver's raw-double outcome into the dimensioned record: the
    // one place per slot where billing doubles acquire their units.
    SlotRecord record;
    record.lambda = units::rps(env.workload[t]);
    record.it_power_kw = units::kw(billed.it_power_kw);
    record.facility_power_kw = units::kw(billed.facility_power_kw);
    record.brown_kwh = units::kwh(billed.brown_kwh);
    record.electricity_cost = units::usd(billed.electricity_cost);
    record.delay_cost = units::usd(billed.delay_cost);
    record.total_cost = units::usd(billed.total_cost);
    record.rec_cost = units::usd(rec_cost);
    record.queue_length = diag.queue_length;
    record.active_servers = dc::total_active_servers(executed);
    record.toggles = toggles;
    record.switching_kwh = units::kwh(switch_kwh);
    record.shed_lambda = units::rps(shed_lambda);
    record.degraded = injector != nullptr && injector->degraded_at(t);
    record.stale = stale_count > 0;
    record.fallback = fallback_used;
    result.metrics.record(record);

    if (want_slot_record) {
      obs::SlotTrace slot;
      slot.t = t;
      slot.lambda = env.workload[t];
      slot.price = env.price[t];
      slot.onsite_kw = env.onsite_kw[t];
      slot.offsite_kwh = env.offsite_kwh[t];
      slot.q = diag.queue_length;
      slot.v = diag.v;
      slot.active_servers = record.active_servers;
      slot.mean_speed_level = mean_speed_level(executed);
      slot.feasible = billed.feasible;
      slot.brown_kwh = billed.brown_kwh;
      slot.electricity_cost = billed.electricity_cost;
      slot.delay_cost = billed.delay_cost;
      slot.rec_cost = rec_cost;
      slot.total_cost = billed.total_cost + rec_cost;
      slot.evaluations = diag.solver_evaluations;
      slot.acceptance_rate =
          diag.solver_evaluations > 0
              ? static_cast<double>(diag.solver_accepted) /
                    static_cast<double>(diag.solver_evaluations)
              : 0.0;
      slot.chains = diag.solver_chains;
      slot.winning_chain = diag.solver_winning_chain;
      slot.fault_active = record.degraded || record.stale || fallback_used ||
                          shed_lambda > 0.0 || crashed;
      slot.degraded = record.degraded;
      slot.stale_inputs = stale_count;
      slot.fallback = fallback_used;
      slot.shed_lambda = shed_lambda;
      slot.solve_ms = static_cast<double>(solve_ns) / 1e6;
      if (options.trace != nullptr) options.trace->record(slot);
      if (options.health != nullptr) {
        // Sink first, monitor second: drops the async sink counted while
        // enqueueing this very record land in this slot's delta.
        obs::SlotHealthContext ctx;
        ctx.slots_since_checkpoint =
            checkpointing ? static_cast<std::int64_t>(t) + 1 - last_checkpoint_slot
                          : -1;
        if (registry != nullptr) {
          const std::int64_t drops_now =
              registry->counter_value("obs.trace_dropped");
          ctx.trace_drops = drops_now - drops_before;
          drops_before = drops_now;
        }
        options.health->on_slot(slot, ctx);
      }
    }

    if (options.exporter != nullptr && registry != nullptr) {
      options.exporter->on_slot(t, *registry);
    }

    if (options.record_allocations != nullptr) {
      options.record_allocations->push_back(executed);
    }
    previous = std::move(executed);
  }
  // Re-seat the controller on the caller's fleet: the degraded copies die
  // with the injector at the end of this function.
  if (injector != nullptr && last_fleet_index != 0) controller.set_fleet(fleet);
  obs::count("sim.slots", static_cast<std::int64_t>(env.slots()));
  return result;
}

}  // namespace coca::sim
