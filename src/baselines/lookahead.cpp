#include "baselines/lookahead.hpp"

#include <algorithm>
#include <stdexcept>

namespace coca::baselines {

double LookaheadResult::benchmark_average_cost() const {
  if (frame_costs.empty()) return 0.0;
  double sum = 0.0;
  for (double c : frame_costs) sum += c;
  return sum / static_cast<double>(frame_costs.size());
}

LookaheadResult solve_lookahead(const dc::Fleet& fleet,
                                std::span<const double> lambda,
                                std::span<const double> onsite_kw,
                                std::span<const double> price,
                                const energy::CarbonBudget& budget,
                                const opt::SlotWeights& weights,
                                std::size_t frame_length) {
  const std::size_t hours = lambda.size();
  if (onsite_kw.size() != hours || price.size() != hours ||
      budget.slots() != hours) {
    throw std::invalid_argument("solve_lookahead: size mismatch");
  }
  if (frame_length == 0 || frame_length > hours) {
    throw std::invalid_argument("solve_lookahead: bad frame length");
  }
  const std::size_t frames = (hours + frame_length - 1) / frame_length;

  LookaheadResult result;
  result.frame_length = frame_length;
  result.frame_costs.reserve(frames);
  result.frame_brown_kwh.reserve(frames);
  result.frame_budget_met.reserve(frames);

  // Z is split evenly across the R frames (the paper's f_r definition).
  const double rec_per_frame =
      budget.alpha() * budget.recs_kwh() / static_cast<double>(frames);

  for (std::size_t start = 0; start < hours; start += frame_length) {
    const std::size_t end = std::min(hours, start + frame_length);
    const std::size_t len = end - start;
    double frame_offsite = 0.0;
    for (std::size_t t = start; t < end; ++t) frame_offsite += budget.offsite()[t];
    const double frame_allowance =
        budget.alpha() * frame_offsite + rec_per_frame;

    const auto schedule = solve_offline_opt(
        fleet, lambda.subspan(start, len), onsite_kw.subspan(start, len),
        price.subspan(start, len), weights, frame_allowance);

    const double frame_cost =
        schedule.total_cost.value();  // UNITS: G_r^* series ($/slot, plotting)
    result.frame_costs.push_back(frame_cost / static_cast<double>(len));
    result.frame_brown_kwh.push_back(
        schedule.total_brown_kwh.value());  // UNITS: kWh series (plotting)
    result.frame_budget_met.push_back(schedule.budget_met);
    result.total_cost += schedule.total_cost;
    result.total_brown_kwh += schedule.total_brown_kwh;
  }
  return result;
}

}  // namespace coca::baselines
