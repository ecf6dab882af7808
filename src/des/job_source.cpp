#include "des/job_source.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::des {

namespace {

/// Written so NaN fails.  An infinite rate draws zero inter-arrival gaps, so
/// the clock would never reach the next boundary.
bool valid_rate(double rate) { return rate >= 0.0 && std::isfinite(rate); }

}  // namespace

JobSource::JobSource(Engine& engine, PsQueue& queue, double rate,
                     double mean_work, double end_time, std::uint64_t seed)
    : engine_(&engine),
      queue_(&queue),
      rate_(rate),
      mean_work_(mean_work),
      end_time_(end_time),
      rng_(seed) {
  if (!valid_rate(rate_) || !(mean_work_ > 0.0) ||
      !std::isfinite(mean_work_) || std::isnan(end_time_)) {
    throw std::invalid_argument("JobSource: bad rate/mean_work/end_time");
  }
  schedule_next();
}

void JobSource::schedule_next() {
  if (rate_ <= 0.0) return;
  const double next = engine_->now() + rng_.exponential(1.0 / rate_);
  if (next >= end_time_) return;
  pending_ = engine_->schedule(next, [this](Engine&) { on_arrival(); });
}

void JobSource::on_arrival() {
  pending_ = 0;
  ++generated_;
  queue_->arrive(rng_.exponential(mean_work_));
  schedule_next();
}

void JobSource::set_rate(double rate) {
  if (!valid_rate(rate)) {
    throw std::invalid_argument(
        "JobSource::set_rate: rate must be finite and >= 0");
  }
  rate_ = rate;
  if (pending_ != 0) {
    engine_->cancel(pending_);
    pending_ = 0;
  }
  schedule_next();
}

}  // namespace coca::des
