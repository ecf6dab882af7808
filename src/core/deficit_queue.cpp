#include "core/deficit_queue.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::core {

units::KiloWattHours CarbonDeficitQueue::update(
    units::KiloWattHours brown, units::KiloWattHours offsite, double alpha,
    units::KiloWattHours rec_per_slot) {
  // A NaN sample would pass a plain `< 0` guard and positive_part would map
  // the NaN iterate to 0, silently erasing the carbon debt — so non-finite
  // input is rejected exactly like negative input.
  for (const double x : {brown.value(), offsite.value(),  // UNITS: validity
                         rec_per_slot.value()}) {  // UNITS: validity check
    if (!std::isfinite(x)) {
      throw std::invalid_argument(
          "CarbonDeficitQueue::update: non-finite input");
    }
    if (x < 0.0) {
      throw std::invalid_argument("CarbonDeficitQueue::update: negative input");
    }
  }
  if (!(alpha > 0.0 && std::isfinite(alpha))) {
    throw std::invalid_argument(
        "CarbonDeficitQueue::update: alpha must be finite and > 0");
  }
  // Eq. 17: q(t+1) = [ q(t) + y(t) - alpha*(f(t) + z(t)) ]^+ — all kWh.
  // alpha multiplies *both* offsets here and nowhere else (the Eq. 10
  // budget is alpha*(F + Z)); callers pass raw kWh.
  const units::KiloWattHours next = units::positive_part(
      deficit() + brown - alpha * (offsite + rec_per_slot));
  q_ = next.value();  // UNITS: q(t) is the raw Lyapunov shadow price
  return next;
}

void CarbonDeficitQueue::restore(double q) {
  if (!std::isfinite(q)) {
    throw std::invalid_argument(
        "CarbonDeficitQueue::restore: non-finite length");
  }
  if (q < 0.0) {
    throw std::invalid_argument("CarbonDeficitQueue::restore: negative length");
  }
  q_ = q;
}

}  // namespace coca::core
