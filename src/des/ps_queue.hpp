#pragma once
// Processor-sharing queue on the DES engine.
//
// Models one server: jobs carry a work requirement (in "work units"); the
// server processes at `speed` work units per second shared equally among the
// jobs present (PS discipline).  With Poisson arrivals this is the M/G/1/PS
// queue of Eq. 4, whose mean number in system is rho/(1-rho) — the identity
// the tests validate against the analytic delay model.
//
// Bookkeeping is in *virtual time* (attained service per resident job):
// V(t) advances at rate speed/n(t), a job arriving at V_a with work w
// departs when V reaches V_a + w, and the resident jobs live in a binary
// min-heap keyed on (finish virtual time, arrival sequence).  Arrival,
// departure and speed change are all O(log n) — the O(n) per-event rescans
// of the naive remaining-work representation made busy periods O(n^2) and
// throttled the sharded request-level replay.  The heap is a flat vector, so
// once it has grown to the peak population arrivals and departures allocate
// nothing.  V rebases to zero whenever the queue empties, so precision never
// degrades over long replays.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/engine.hpp"
#include "obs/tail_histogram.hpp"

namespace coca::des {

class PsQueue {
 public:
  /// `speed`: service capacity in work units per second (finite, > 0).
  PsQueue(Engine& engine, double speed);

  /// Change the service speed at the current simulation time (DVFS).
  void set_speed(double speed);
  double speed() const { return speed_; }

  /// A job with `work` service requirement arrives now.  Zero-work jobs
  /// (the exponential sampler can return exactly 0) complete immediately
  /// with zero sojourn; negative or non-finite work throws.
  void arrive(double work);

  /// Per-completion sojourn times additionally stream into `sink` when set
  /// (the shard runner's tail-latency histogram).  Not owned; may be null.
  void set_sojourn_sink(obs::TailHistogram* sink) { sojourn_sink_ = sink; }

  std::size_t jobs_in_system() const { return jobs_.size(); }

  struct Stats {
    std::size_t arrivals = 0;
    std::size_t completions = 0;
    double total_response_seconds = 0.0;  ///< summed sojourn times
    double area_jobs = 0.0;   ///< integral of jobs-in-system over time
    double observed_seconds = 0.0;

    double mean_response_seconds() const {
      return completions ? total_response_seconds /
                               static_cast<double>(completions)
                         : 0.0;
    }
    double mean_jobs_in_system() const {
      return observed_seconds > 0.0 ? area_jobs / observed_seconds : 0.0;
    }
  };

  /// Statistics, with the occupancy integral folded up to the engine's
  /// current clock.  A pure observation: reading stats mid-run never
  /// perturbs the replay's floating-point trajectory (determinism contract
  /// of des::ShardRunner's per-slot traces).
  Stats stats() const;

 private:
  struct ResidentJob {
    double finish_vtime = 0.0;  ///< virtual time at which service completes
    std::uint64_t sequence = 0; ///< arrival order; breaks finish-time ties
    double arrival_time = 0.0;  ///< wall-clock arrival (sojourn accounting)

    /// Heap order: std::*_heap with this comparison keeps the job that
    /// finishes first (ties: arrived first) at the front.
    bool operator>(const ResidentJob& other) const {
      if (finish_vtime != other.finish_vtime) {
        return finish_vtime > other.finish_vtime;
      }
      return sequence > other.sequence;
    }
  };

  /// Fold elapsed wall time into the occupancy integral and virtual time.
  void advance();
  /// (Re)schedule the next completion event.
  void schedule_departure();
  void on_departure();
  /// Complete (in finish order) every job with finish_vtime <= threshold.
  std::size_t complete_through(double threshold);
  void record_completion(const ResidentJob& job);
  /// Remove the front (first-finishing) job from the heap.
  void pop_front();

  Engine* engine_;
  double speed_;
  std::vector<ResidentJob> jobs_;  ///< min-heap on (finish_vtime, sequence)
  double vtime_ = 0.0;          ///< attained service per resident job
  double last_update_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  Engine::EventId pending_departure_ = 0;
  Stats stats_;
  obs::TailHistogram* sojourn_sink_ = nullptr;
};

}  // namespace coca::des
