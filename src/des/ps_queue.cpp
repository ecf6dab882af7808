#include "des/ps_queue.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace coca::des {

namespace {
// Completion tolerance in work units (mean job work is O(1)); completing
// 1e-9 work early is an O(1e-10 s) bias.  Virtual time rebases to 0 at every
// empty period, so the absolute epsilon stays meaningful even in long runs.
constexpr double kCompletionEps = 1e-9;

/// Written so NaN fails: a NaN speed would freeze virtual time and stall
/// every departure.
bool valid_speed(double speed) { return speed > 0.0 && std::isfinite(speed); }
}  // namespace

PsQueue::PsQueue(Engine& engine, double speed)
    : engine_(&engine), speed_(speed), last_update_(engine.now()) {
  if (!valid_speed(speed)) {
    throw std::invalid_argument("PsQueue: speed must be finite and > 0");
  }
}

void PsQueue::advance() {
  const double now = engine_->now();
  const double elapsed = now - last_update_;
  if (elapsed < 0.0) throw std::logic_error("PsQueue: clock went backwards");
  if (elapsed > 0.0) {
    const auto n = static_cast<double>(jobs_.size());
    stats_.area_jobs += n * elapsed;
    stats_.observed_seconds += elapsed;
    // Every resident job attains service at rate speed/n: one scalar update
    // replaces the per-job remaining-work sweep.
    if (!jobs_.empty()) vtime_ += elapsed * speed_ / n;
  }
  last_update_ = now;
}

void PsQueue::schedule_departure() {
  if (pending_departure_ != 0) {
    engine_->cancel(pending_departure_);
    pending_departure_ = 0;
  }
  if (jobs_.empty()) return;
  const double min_finish = jobs_.front().finish_vtime;
  const double remaining_v = min_finish > vtime_ ? min_finish - vtime_ : 0.0;
  const double horizon =
      remaining_v * static_cast<double>(jobs_.size()) / speed_;
  pending_departure_ = engine_->schedule(
      engine_->now() + horizon, [this](Engine&) { on_departure(); });
}

void PsQueue::record_completion(const ResidentJob& job) {
  ++stats_.completions;
  const double sojourn = engine_->now() - job.arrival_time;
  stats_.total_response_seconds += sojourn;
  if (sojourn_sink_ != nullptr) sojourn_sink_->record(sojourn);
}

void PsQueue::pop_front() {
  std::pop_heap(jobs_.begin(), jobs_.end(), std::greater<ResidentJob>());
  jobs_.pop_back();
}

std::size_t PsQueue::complete_through(double threshold) {
  std::size_t done = 0;
  while (!jobs_.empty() && jobs_.front().finish_vtime <= threshold) {
    record_completion(jobs_.front());
    pop_front();
    ++done;
  }
  return done;
}

void PsQueue::on_departure() {
  pending_departure_ = 0;
  advance();
  // Complete every job whose residual virtual service is negligible (ties
  // together).
  if (complete_through(vtime_ + kCompletionEps) == 0 && !jobs_.empty()) {
    // Floating-point stall guard: the event fired at the scheduled finish
    // time but the clock/virtual-time could not resolve the last ulp of
    // service.  The minimum-finish job is done by construction.
    complete_through(jobs_.front().finish_vtime);
  }
  if (jobs_.empty()) vtime_ = 0.0;  // rebase: nothing references V anymore
  schedule_departure();
}

void PsQueue::arrive(double work) {
  // Written so NaN fails: a NaN finish time never compares <= any
  // threshold, so the job would never complete and the stall guard would
  // reschedule it forever.
  if (!(work >= 0.0) || !std::isfinite(work)) {
    throw std::invalid_argument(
        "PsQueue::arrive: work must be finite and >= 0");
  }
  advance();
  ++stats_.arrivals;
  if (work == 0.0) {
    // Zero service requirement: completes the instant it arrives, without
    // ever joining the processor-sharing round (sojourn 0).
    ResidentJob job;
    job.arrival_time = engine_->now();
    record_completion(job);
    return;
  }
  jobs_.push_back({vtime_ + work, next_sequence_++, engine_->now()});
  std::push_heap(jobs_.begin(), jobs_.end(), std::greater<ResidentJob>());
  schedule_departure();
}

void PsQueue::set_speed(double speed) {
  if (!valid_speed(speed)) {
    throw std::invalid_argument(
        "PsQueue::set_speed: speed must be finite and > 0");
  }
  advance();
  speed_ = speed;
  schedule_departure();
}

PsQueue::Stats PsQueue::stats() const {
  // Pure observation: fold the open interval [last_update_, now) into a
  // *copy*.  Mutating here (as an advance() call would) chunks the vtime_
  // and integral accumulation at every read, so merely observing the queue
  // mid-run would change its floating-point trajectory — the shard runner's
  // per-slot trace reads must leave the replay bit-identical to an untraced
  // one.
  Stats out = stats_;
  const double elapsed = engine_->now() - last_update_;
  if (elapsed > 0.0) {
    out.area_jobs += static_cast<double>(jobs_.size()) * elapsed;
    out.observed_seconds += elapsed;
  }
  return out;
}

}  // namespace coca::des
