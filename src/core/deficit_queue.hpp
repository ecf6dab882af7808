#pragma once
// The carbon-deficit virtual queue (Eq. 17) — COCA's central device.
//
//   q(t+1) = [ q(t) + y(t) - alpha * ( f(t) + z(t) ) ]^+ ,
//
// where y(t) is the slot's brown energy, f(t) the realized off-site
// renewables, and z(t) the slot's REC energy (the pre-purchased block's
// per-slot share Z/J plus any dynamically procured RECs), all in *unscaled
// kWh*.  The queue applies the capping parameter alpha of Eq. 10's budget
// alpha*(sum_t f(t) + Z) itself — the single place in the tree where alpha
// touches an offset, so every offsetting kWh (off-site or REC) is worth
// exactly alpha kWh of queue drop, by construction.  Callers must never
// pre-scale (the historical alpha*Z/J convention is gone; see
// tests/core_rec_policy_test.cpp RecConventionEndToEnd for the pin).
//
// The queue length measures how far cumulative electricity usage has
// deviated from the carbon-neutrality allowance; COCA feeds it back as the
// weight on energy in P3 ("if violate neutrality, then use less
// electricity").  Algorithm 1 resets the queue at the start of every frame
// so the cost-carbon parameter V can be re-tuned.

#include "util/units.hpp"

namespace coca::core {

class CarbonDeficitQueue {
 public:
  CarbonDeficitQueue() = default;

  double length() const { return q_; }
  /// Queue length as the energy deficit it measures (kWh).
  units::KiloWattHours deficit() const { return units::KiloWattHours{q_}; }

  /// Apply Eq. 17 for one slot.  `brown` = y(t), `offsite` = f(t),
  /// `rec_per_slot` = z(t) — both offsets in unscaled kWh; this update
  /// multiplies the *sum* of them by `alpha`.  Every term of Eq. 17 is
  /// energy — the typed signature makes a power-for-energy mixup (kW where
  /// kWh belongs) a compile error.  Throws std::invalid_argument on a
  /// negative or non-finite input, or an alpha that is not finite and
  /// positive, leaving the queue unchanged.  Returns the new queue length.
  units::KiloWattHours update(units::KiloWattHours brown,
                              units::KiloWattHours offsite, double alpha,
                              units::KiloWattHours rec_per_slot);

  /// Raw-double escape hatch; delegates to the typed overload.
  double update(double brown_kwh, double offsite_kwh, double alpha,
                double rec_per_slot) {
    return update(units::KiloWattHours{brown_kwh},
                  units::KiloWattHours{offsite_kwh}, alpha,
                  units::KiloWattHours{rec_per_slot})
        .value();  // UNITS: documented raw-double delegate
  }

  /// Frame reset (Algorithm 1 lines 2-4).
  void reset() { q_ = 0.0; }

  /// Crash/restart: set the length, the queue's whole state, from a
  /// checkpointed snapshot (core/checkpoint.hpp).  Throws on a negative or
  /// non-finite length: a restored queue must still be a valid [.]^+ iterate.
  void restore(double q);

 private:
  double q_ = 0.0;
};

}  // namespace coca::core
