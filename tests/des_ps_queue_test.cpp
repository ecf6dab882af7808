// Tests for the processor-sharing queue and the M/G/1/PS validation bridge:
// the DES measurements must reproduce the analytic delay model (Eq. 4) the
// optimizer trusts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dc/delay_model.hpp"
#include "des/job_source.hpp"
#include "des/slot_replay.hpp"
#include "obs/tail_histogram.hpp"

namespace coca::des {
namespace {

TEST(PsQueue, SingleJobServedAtFullSpeed) {
  Engine engine;
  PsQueue queue(engine, 2.0);  // 2 work units / s
  queue.arrive(4.0);
  engine.run_all();
  const auto stats = queue.stats();
  EXPECT_EQ(stats.completions, 1u);
  EXPECT_NEAR(stats.total_response_seconds, 2.0, 1e-9);
  EXPECT_EQ(queue.jobs_in_system(), 0u);
}

TEST(PsQueue, TwoJobsShareCapacity) {
  Engine engine;
  PsQueue queue(engine, 1.0);
  // Both arrive at t=0 with work 1: each gets rate 1/2, both finish at t=2.
  queue.arrive(1.0);
  queue.arrive(1.0);
  engine.run_all();
  const auto stats = queue.stats();
  EXPECT_EQ(stats.completions, 2u);
  EXPECT_NEAR(stats.total_response_seconds, 4.0, 1e-9);
  EXPECT_NEAR(engine.now(), 2.0, 1e-9);
}

TEST(PsQueue, StaggeredArrivalSharing) {
  Engine engine;
  PsQueue queue(engine, 1.0);
  queue.arrive(1.0);  // t=0, work 1
  engine.schedule(0.5, [&](Engine&) { queue.arrive(0.25); });
  engine.run_all();
  // Job A runs alone [0,0.5] (0.5 done), shares [0.5,1.0] (0.25 each, B
  // finishes at t=1.0), then A alone needs 0.25 more -> t=1.25.
  const auto stats = queue.stats();
  EXPECT_EQ(stats.completions, 2u);
  EXPECT_NEAR(engine.now(), 1.25, 1e-9);
  EXPECT_NEAR(stats.total_response_seconds, 1.25 + 0.5, 1e-9);
}

TEST(PsQueue, SpeedChangeMidService) {
  Engine engine;
  PsQueue queue(engine, 1.0);
  queue.arrive(2.0);
  engine.schedule(1.0, [&](Engine&) { queue.set_speed(2.0); });
  engine.run_all();
  // 1 work unit done in [0,1], remaining 1 at speed 2 -> finish t=1.5.
  EXPECT_NEAR(engine.now(), 1.5, 1e-9);
}

TEST(PsQueue, AreaIntegralTracksOccupancy) {
  Engine engine;
  PsQueue queue(engine, 1.0);
  queue.arrive(1.0);
  queue.arrive(1.0);
  engine.run_until(5.0);
  const auto stats = queue.stats();
  // 2 jobs in [0,2], 0 after: area = 4 over 5 seconds.
  EXPECT_NEAR(stats.area_jobs, 4.0, 1e-9);
  EXPECT_NEAR(stats.mean_jobs_in_system(), 0.8, 1e-9);
}

TEST(PsQueue, Validation) {
  Engine engine;
  EXPECT_THROW(PsQueue(engine, 0.0), std::invalid_argument);
  PsQueue queue(engine, 1.0);
  EXPECT_THROW(queue.arrive(-1.0), std::invalid_argument);
  EXPECT_THROW(queue.set_speed(-1.0), std::invalid_argument);
}

TEST(PsQueue, RejectsNonFiniteSpeedAndWork) {
  // Regression: the `speed <= 0` / `work < 0` guards let NaN through.  A NaN
  // speed was accepted outright, and arrive(NaN) hung forever: the NaN
  // finish time never compares <= any threshold, so the stall guard
  // rescheduled the departure without ever completing the job.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Engine engine;
  EXPECT_THROW(PsQueue(engine, nan), std::invalid_argument);
  EXPECT_THROW(PsQueue(engine, inf), std::invalid_argument);
  PsQueue queue(engine, 1.0);
  EXPECT_THROW(queue.set_speed(nan), std::invalid_argument);
  EXPECT_THROW(queue.set_speed(inf), std::invalid_argument);
  EXPECT_EQ(queue.speed(), 1.0);
  EXPECT_THROW(queue.arrive(nan), std::invalid_argument);
  EXPECT_THROW(queue.arrive(inf), std::invalid_argument);
  EXPECT_EQ(queue.jobs_in_system(), 0u);
  EXPECT_EQ(queue.stats().arrivals, 0u);
  // The queue is still usable after rejecting bad input.
  queue.arrive(1.0);
  engine.run_all();
  EXPECT_EQ(queue.stats().completions, 1u);
  EXPECT_NEAR(engine.now(), 1.0, 1e-12);
}

TEST(JobSource, RejectsNonFiniteRates) {
  // Regression: set_rate(NaN) was accepted, and set_rate(Inf) drew zero
  // inter-arrival gaps forever, so run_until never reached its boundary.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Engine engine;
  PsQueue queue(engine, 1e9);
  EXPECT_THROW(JobSource(engine, queue, nan, 1.0, 10.0, 1),
               std::invalid_argument);
  EXPECT_THROW(JobSource(engine, queue, inf, 1.0, 10.0, 1),
               std::invalid_argument);
  EXPECT_THROW(JobSource(engine, queue, 1.0, nan, 10.0, 1),
               std::invalid_argument);
  EXPECT_THROW(JobSource(engine, queue, 1.0, 1.0, nan, 1),
               std::invalid_argument);
  JobSource source(engine, queue, 0.0, 1.0, 10.0, 1);
  EXPECT_THROW(source.set_rate(nan), std::invalid_argument);
  EXPECT_THROW(source.set_rate(inf), std::invalid_argument);
  EXPECT_THROW(source.set_rate(-1.0), std::invalid_argument);
  engine.run_until(10.0);  // terminates: the rate stayed 0
  EXPECT_EQ(source.generated(), 0u);
}

TEST(PsQueue, ZeroWorkArrivalCompletesImmediately) {
  // The exponential work sampler can return exactly 0.0 (it maps u = 1 to
  // -log(1) = 0); such a request completes the instant it arrives with zero
  // sojourn instead of throwing away the whole replay.
  Engine engine;
  PsQueue queue(engine, 2.0);
  obs::TailHistogram tail;
  queue.set_sojourn_sink(&tail);
  queue.arrive(0.0);
  EXPECT_EQ(queue.jobs_in_system(), 0u);
  const auto empty_stats = queue.stats();
  EXPECT_EQ(empty_stats.arrivals, 1u);
  EXPECT_EQ(empty_stats.completions, 1u);
  EXPECT_EQ(empty_stats.total_response_seconds, 0.0);
  EXPECT_EQ(tail.total(), 1u);
  // A zero sojourn lands in the underflow bin.
  EXPECT_DOUBLE_EQ(tail.quantile(1.0),
                   std::ldexp(1.0, tail.config().min_exponent));

  // Zero-work arrivals leave jobs already in service untouched: the resident
  // job still finishes as if it had the server to itself.
  queue.arrive(2.0);
  queue.arrive(0.0);
  EXPECT_EQ(queue.jobs_in_system(), 1u);
  engine.run_all();
  EXPECT_EQ(queue.stats().completions, 3u);
  EXPECT_NEAR(engine.now(), 1.0, 1e-12);  // 2 work units at speed 2, alone
}

TEST(PsQueue, StatsReadsDoNotPerturbTheReplay) {
  // stats() folds the occupancy integral up to the clock on a *copy*: an
  // observed run must stay bit-identical to an unobserved one (the shard
  // runner reads stats at every slot boundary of a traced replay).
  const auto run = [](bool observe) {
    Engine engine;
    PsQueue queue(engine, 3.0);
    obs::TailHistogram tail;
    queue.set_sojourn_sink(&tail);
    JobSource source(engine, queue, 2.0, 1.0, 200.0, 7);
    if (observe) {
      for (double t = 1.0; t < 250.0; t += 1.0) {
        engine.run_until(t);
        (void)queue.stats();
        (void)queue.jobs_in_system();
      }
    }
    engine.run_all();
    const auto stats = queue.stats();
    return std::make_tuple(stats.arrivals, stats.completions, stats.area_jobs,
                           stats.total_response_seconds, tail.counts());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(JobSource, SetRateRacingTheFinalArrivalRespectsTheHorizon) {
  // set_rate cancels the pending arrival and redraws from now.  Flipping the
  // rate while the final pre-end_time arrival is in flight must neither fire
  // that arrival nor let the redraw schedule past the horizon.
  Engine engine;
  PsQueue queue(engine, 1e9);
  JobSource source(engine, queue, 5.0, 1.0, 4.0, 42);
  engine.run_until(2.0);
  const auto before = source.generated();
  EXPECT_GT(before, 0u);
  source.set_rate(0.0);  // cancels the pending arrival
  engine.run_all();
  EXPECT_EQ(source.generated(), before);

  // Re-enabling once the clock has passed end_time generates nothing: the
  // redraw lands at now + Exp > end_time and is discarded.
  engine.run_until(5.0);
  source.set_rate(50.0);
  engine.run_all();
  EXPECT_EQ(source.generated(), before);
  EXPECT_EQ(queue.stats().arrivals, before);
}

// --- M/G/1/PS law validation: the core modeling assumption of Eq. 4 ---

struct Mg1psCase {
  double rho;
};

class Mg1psValidation : public ::testing::TestWithParam<Mg1psCase> {};

TEST_P(Mg1psValidation, JobsInSystemMatchesRhoOverOneMinusRho) {
  const double rate = 10.0;
  const double lambda = GetParam().rho * rate;
  const auto measured = measure_ps_server(lambda, rate, 40'000.0, 11);
  const double expected = dc::mg1ps_jobs_in_system(lambda, rate);
  EXPECT_NEAR(measured.mean_jobs_in_system, expected, 0.12 * expected + 0.02)
      << "rho = " << GetParam().rho;
}

TEST_P(Mg1psValidation, ResponseTimeMatchesAnalytic) {
  const double rate = 10.0;
  const double lambda = GetParam().rho * rate;
  const auto measured = measure_ps_server(lambda, rate, 40'000.0, 12);
  const double expected = dc::mg1ps_mean_response_seconds(lambda, rate);
  EXPECT_NEAR(measured.mean_response_seconds, expected, 0.12 * expected);
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, Mg1psValidation,
                         ::testing::Values(Mg1psCase{0.2}, Mg1psCase{0.4},
                                           Mg1psCase{0.6}, Mg1psCase{0.8}),
                         [](const auto& name_info) {
                           return "rho" + std::to_string(static_cast<int>(
                                              name_info.param.rho * 100));
                         });

TEST(SlotReplay, FleetDelayMatchesAnalyticModel) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 3);
  dc::Allocation alloc(2);
  alloc[0] = {3, 2.0, 10.0};  // rho 0.5
  alloc[1] = {1, 3.0, 7.8};   // rate 5.2, rho 0.5
  const double analytic = dc::total_delay_jobs(fleet, alloc);
  const double replayed = replay_delay_jobs(fleet, alloc, 20'000.0, 21);
  EXPECT_NEAR(replayed, analytic, 0.15 * analytic);
}

TEST(SlotReplay, IdleGroupsContributeNothing) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 3);
  dc::Allocation alloc(2);
  alloc[0] = {3, 1.0, 5.0};
  alloc[1] = {3, 0.0, 0.0};
  const double replayed = replay_delay_jobs(fleet, alloc, 5'000.0, 22);
  EXPECT_GT(replayed, 0.0);
}

TEST(JobSource, GeneratesAtConfiguredRate) {
  Engine engine;
  PsQueue queue(engine, 1e9);  // effectively infinite speed
  JobSource source(engine, queue, 50.0, 0.001, 200.0, 31);
  engine.run_until(200.0);
  EXPECT_NEAR(static_cast<double>(source.generated()), 10'000.0, 400.0);
}

TEST(JobSource, RateChangeTakesEffect) {
  Engine engine;
  PsQueue queue(engine, 1e9);
  JobSource source(engine, queue, 100.0, 0.001, 1'000.0, 32);
  engine.schedule(100.0, [&](Engine&) { source.set_rate(0.0); });
  engine.run_until(1'000.0);
  EXPECT_NEAR(static_cast<double>(source.generated()), 10'000.0, 500.0);
}

}  // namespace
}  // namespace coca::des
