#pragma once
// The per-slot optimization problem P3 (Eq. 16) and its cost accounting.
//
// Given the slot's environment (workload lambda, on-site renewable power r,
// electricity price w) and the controller weights (V, carbon-deficit queue
// length q, delay weight beta, utilization cap gamma, PUE), an Allocation is
// scored by
//     cost g      = e + beta * d * slot_hours            (Eq. 5)
//     brown y     = [p - r]^+ * slot_hours               (kWh)
//     objective   = V * g + q * y                        (Eq. 16)
// where e = w * y and d is the fleet delay cost (Eq. 4).

#include <limits>
#include <string>

#include "dc/delay_model.hpp"
#include "dc/power_model.hpp"
#include "util/units.hpp"

namespace coca::opt {

/// Environment observed at the start of a slot (the paper's lambda(t), r(t),
/// w(t); off-site renewables f(t) are *not* an input to P3 — they enter only
/// the queue update after the slot).
///
/// The raw fields stay plain doubles (aggregate init is used all over the
/// solvers and benches); the typed accessors and factory below are the
/// dimension-checked way in and out.
struct SlotInput {
  double lambda = 0.0;     ///< total workload arrival rate (req/s)
  double onsite_kw = 0.0;  ///< on-site renewable power r(t) (kW)
  double price = 0.0;      ///< electricity price w(t) ($/kWh)

  units::RequestsPerSec arrival_rate() const {
    return units::RequestsPerSec{lambda};
  }
  units::KiloWatts onsite_power() const { return units::KiloWatts{onsite_kw}; }
  units::UsdPerKwh price_per_kwh() const { return units::UsdPerKwh{price}; }

  /// Typed factory: passing a price where power is expected (or any other
  /// dimension mixup) fails to compile.
  static SlotInput of(units::RequestsPerSec lambda_rps,
                      units::KiloWatts onsite, units::UsdPerKwh price_kwh) {
    return SlotInput{lambda_rps.value(), onsite.value(), price_kwh.value()};
  }
};

/// Reject a slot input no solver can score: lambda must be finite and
/// nonnegative, the price finite (it may be negative) and the on-site supply
/// finite and nonnegative.  Throws std::invalid_argument naming the field.
void validate(const SlotInput& input);

/// Controller weights and model parameters for P3.
struct SlotWeights {
  double V = 1.0;          ///< cost-carbon parameter (Sec. 4.1)
  double q = 0.0;          ///< carbon-deficit queue length (kWh)
  double beta = 0.005;     ///< delay-cost weight ($ per job-hour in system)
  double gamma = 0.9;      ///< maximum server utilization (constraint 7)
  double pue = 1.0;        ///< power usage effectiveness multiplier
  double slot_hours = 1.0; ///< slot duration
  /// Price on *total facility energy* regardless of renewables ($/kWh).
  /// 0 in the paper's base model; used by the peak-power extension
  /// (Sec. 3.1: "additional constraints, such as peak power ... can also be
  /// incorporated") as the Lagrange multiplier of a facility power cap, and
  /// usable directly to model demand charges.
  double power_price = 0.0;

  /// Effective brown-energy price in the P3 objective ($/kWh):
  /// V*w + q — the "V*w plus queue" weighting Sec. 4.1 describes —
  /// plus any facility-power price.
  ///
  /// V and q are Lyapunov weights, deliberately raw doubles: in the
  /// drift-plus-penalty objective they bridge units (q multiplies kWh yet is
  /// commensurable with V*$), so they live outside the typed layer.
  double brown_price(double electricity_price) const {
    return V * electricity_price + q + power_price;
  }

  units::Hours slot_duration() const { return units::Hours{slot_hours}; }
  units::UsdPerKwh brown_price(units::UsdPerKwh electricity_price) const {
    return units::UsdPerKwh{brown_price(electricity_price.value())};
  }
};

/// Full cost breakdown of an allocation at one slot.
struct SlotOutcome {
  double it_power_kw = 0.0;
  double facility_power_kw = 0.0;
  double brown_kwh = 0.0;         ///< y(t)
  double electricity_cost = 0.0;  ///< e(t), $
  double delay_jobs = 0.0;        ///< d(t), mean jobs in system
  double delay_cost = 0.0;        ///< beta * d * slot_hours, $
  double total_cost = 0.0;        ///< g(t) = e + delay_cost, $
  double objective = std::numeric_limits<double>::infinity();  ///< Eq. 16
  bool feasible = false;
  std::string infeasible_reason;

  // Typed views of the billed quantities (see util/units.hpp).
  units::KiloWatts it_power() const { return units::KiloWatts{it_power_kw}; }
  units::KiloWatts facility_power() const {
    return units::KiloWatts{facility_power_kw};
  }
  units::KiloWattHours brown_energy() const {
    return units::KiloWattHours{brown_kwh};
  }
  units::Usd electricity() const { return units::Usd{electricity_cost}; }
  units::Usd delay() const { return units::Usd{delay_cost}; }
  units::Usd total() const { return units::Usd{total_cost}; }
};

/// Score an allocation; returns an infeasible outcome (objective = +inf)
/// rather than throwing when constraints (7)-(9) are violated, so search
/// algorithms can treat infeasibility uniformly.
SlotOutcome evaluate(const dc::Fleet& fleet, const dc::Allocation& alloc,
                     const SlotInput& input, const SlotWeights& weights);

/// True iff the fleet can serve `lambda` at all under the utilization cap
/// (everything on at top speed), i.e. P3 has a feasible point.
bool slot_feasible(const dc::Fleet& fleet, double lambda, double gamma);

/// The all-off allocation (feasible only when lambda == 0).
dc::Allocation all_off(const dc::Fleet& fleet);

/// Everything on at top speed with load spread in proportion to capacity —
/// the canonical feasible fallback (used for initialization and as the
/// mu = 0 delay-minimizing provisioning).
dc::Allocation all_on_max(const dc::Fleet& fleet, double lambda, double gamma);

/// Minimal capacity expansion for runtime underestimates: starting from a
/// planned allocation whose gamma-capped capacity falls short of `lambda`,
/// wake additional servers proportionally (keeping each group's speed
/// level), then raise still-saturated groups to their top speed, and only
/// then fall back to everything-on.  Loads are cleared; the caller
/// re-balances.  This models what a real cluster manager does when the
/// hour's traffic beats the forecast — it does not power the whole fleet.
dc::Allocation expanded_to_capacity(const dc::Fleet& fleet,
                                    const dc::Allocation& planned,
                                    double lambda, double gamma);

/// Clamp an allocation onto a (possibly smaller) fleet: per group, active
/// servers are capped at the group's server count and the speed level at its
/// top level; loads are cleared for the caller to re-balance.  This is the
/// anytime fallback's "previous slot's allocation rescaled to surviving
/// capacity" (fault injection: deadline overruns, post-outage slots).
dc::Allocation clamped_to_fleet(const dc::Fleet& fleet,
                                const dc::Allocation& planned);

}  // namespace coca::opt
