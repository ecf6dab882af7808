#pragma once
// Poisson job source driving a PsQueue: exponential inter-arrival times at a
// configurable rate, exponential work requirements (the paper's "mice-type"
// requests: exponential service, mean 100 ms at full speed — i.e. mean work
// = 1 in normalized units when the top speed is 10 req/s).

#include <cstdint>

#include "des/ps_queue.hpp"
#include "util/rng.hpp"

namespace coca::des {

class JobSource {
 public:
  /// Feeds `queue` with Poisson(rate) arrivals of exponential(mean_work)
  /// jobs starting at the engine's current time, stopping at `end_time`.
  JobSource(Engine& engine, PsQueue& queue, double rate, double mean_work,
            double end_time, std::uint64_t seed);

  /// Change the arrival rate from the current simulation time on (finite,
  /// >= 0; anything else throws std::invalid_argument).
  void set_rate(double rate);
  std::uint64_t generated() const { return generated_; }

 private:
  void schedule_next();
  void on_arrival();

  Engine* engine_;
  PsQueue* queue_;
  double rate_;
  double mean_work_;
  double end_time_;
  util::Rng rng_;
  std::uint64_t generated_ = 0;
  Engine::EventId pending_ = 0;
};

}  // namespace coca::des
