// coca-ckpt-v2 checkpoint/restore (core/checkpoint.hpp): queue round-trips,
// blob size independent of the horizon, crash/restart through the simulator
// under static and dynamic REC policies (cadence 1 = bit-identical, cadence
// k = exact rollback semantics), and rejection of corrupt or mismatched
// blobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/coca_controller.hpp"
#include "core/rec_policy.hpp"
#include "fault/schedule.hpp"
#include "sim/simulator.hpp"

namespace coca {
namespace {

using fault::Schedule;

constexpr std::size_t kSlots = 30;

sim::Environment make_env(std::size_t slots = kSlots) {
  std::vector<double> lambda(slots), price(slots), offsite(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    lambda[t] = 100.0 + 6.0 * static_cast<double>((t * 5) % 7);
    price[t] = 0.03 + 0.012 * static_cast<double>((t * 3) % 5);
    offsite[t] = 0.4 * static_cast<double>(t % 4);
  }
  const std::vector<double> zero(slots, 0.0);
  return sim::Environment{workload::Trace("lambda", lambda),
                          workload::Trace("lambda", lambda),
                          workload::Trace("onsite", zero),
                          workload::Trace("price", price),
                          workload::Trace("offsite", offsite)};
}

core::CocaConfig coca_config() {
  core::CocaConfig config;
  config.schedule = core::VSchedule::constant(30.0);
  config.rec_per_slot = 0.5;  // static pre-purchased block
  return config;
}

core::RecMarketConfig market_config(std::size_t slots = kSlots) {
  std::vector<double> spot(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    spot[t] = 0.005 + 0.004 * static_cast<double>((t * 7) % 3);
  }
  core::RecMarketConfig market;
  market.spot_price = workload::Trace("spot", spot);
  market.max_total_kwh = 500.0;
  market.max_per_slot_kwh = 5.0;
  return market;
}

void expect_metrics_bitwise_equal(const sim::Metrics& a,
                                  const sim::Metrics& b) {
  ASSERT_EQ(a.slot_count(), b.slot_count());
  EXPECT_EQ(a.cost_series(), b.cost_series());
  EXPECT_EQ(a.brown_series(), b.brown_series());
  EXPECT_EQ(a.queue_series(), b.queue_series());
  EXPECT_EQ(a.delay_cost_series(), b.delay_cost_series());
}

// --- Direct round-trips (no simulator) ---

TEST(Checkpoint, QueueStateRoundTripsBitwise) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);
  core::CocaController source(fleet, coca_config());
  // Drive the queue through a few updates with synthetic outcomes.
  for (std::size_t t = 0; t < 7; ++t) {
    (void)source.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 3.0 + 0.7 * static_cast<double>(t);
    billed.feasible = true;
    source.observe(t, billed, 0.9);
  }
  const std::string blob = source.checkpoint(7);
  EXPECT_NE(blob.find(core::kCheckpointSchema), std::string::npos);

  core::CocaController restored(fleet, coca_config());
  restored.restore(blob);
  EXPECT_EQ(restored.queue().length(), source.queue().length());  // bitwise

  // Restore-then-run: both controllers agree bitwise from here on.
  for (std::size_t t = 7; t < 12; ++t) {
    const auto a = source.plan(t, {110.0, 0.0, 0.04});
    const auto b = restored.plan(t, {110.0, 0.0, 0.04});
    ASSERT_EQ(a.alloc.size(), b.alloc.size());
    for (std::size_t g = 0; g < a.alloc.size(); ++g) {
      EXPECT_EQ(a.alloc[g].level, b.alloc[g].level);
      EXPECT_EQ(a.alloc[g].active, b.alloc[g].active);
      EXPECT_EQ(a.alloc[g].load, b.alloc[g].load);
    }
    opt::SlotOutcome billed;
    billed.brown_kwh = 2.0;
    billed.feasible = true;
    source.observe(t, billed, 0.5);
    restored.observe(t, billed, 0.5);
    EXPECT_EQ(source.queue().length(), restored.queue().length());
  }
}

TEST(Checkpoint, DynamicRecStateRoundTripsBitwise) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);
  core::DynamicRecCocaController source(fleet, coca_config(), market_config());
  for (std::size_t t = 0; t < 9; ++t) {
    (void)source.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 4.0 + static_cast<double>(t % 3);
    billed.feasible = true;
    source.observe(t, billed, 0.2);
  }
  ASSERT_GT(source.total_purchased_kwh(), 0.0);  // the market actually traded

  core::DynamicRecCocaController restored(fleet, coca_config(),
                                          market_config());
  restored.restore(source.checkpoint(9));
  EXPECT_EQ(restored.queue_length(), source.queue_length());  // bitwise
  EXPECT_EQ(restored.total_spend(), source.total_spend());
  EXPECT_EQ(restored.total_purchased_kwh(), source.total_purchased_kwh());
  EXPECT_EQ(restored.ledger().retired_total(), source.ledger().retired_total());
}

// Drives `controller` through `slots` synthetic slots and returns its blob.
std::string blob_after(core::SlotController& controller, std::size_t slots) {
  for (std::size_t t = 0; t < slots; ++t) {
    (void)controller.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 4.0 + static_cast<double>(t % 3);
    billed.feasible = true;
    controller.observe(t, billed, 0.2);
  }
  return controller.checkpoint(slots);
}

TEST(Checkpoint, BlobSizeDoesNotGrowWithHorizon) {
  // A blob holds only the state the next plan() reads, so a year-scale run
  // checkpoints as cheaply as a short one: the lengths may differ only by
  // the width of the numbers in them.
  constexpr std::size_t kShort = 10;
  constexpr std::size_t kLong = 5000;
  constexpr std::size_t kNumberWidth = 64;
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);

  core::CocaController coca_short(fleet, coca_config());
  core::CocaController coca_long(fleet, coca_config());
  const std::string a = blob_after(coca_short, kShort);
  const std::string b = blob_after(coca_long, kLong);
  EXPECT_LE(b.size(), a.size() + kNumberWidth) << b.substr(0, 200);

  core::DynamicRecCocaController rec_short(fleet, coca_config(),
                                           market_config(kLong));
  core::DynamicRecCocaController rec_long(fleet, coca_config(),
                                          market_config(kLong));
  const std::string c = blob_after(rec_short, kShort);
  const std::string d = blob_after(rec_long, kLong);
  ASSERT_GT(rec_long.total_purchased_kwh(), 0.0);  // the market traded
  EXPECT_LE(d.size(), c.size() + kNumberWidth) << d.substr(0, 200);
}

TEST(Checkpoint, RejectsCorruptAndMismatchedBlobs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 4);
  core::CocaController controller(fleet, coca_config());
  EXPECT_THROW(controller.restore("not json"), std::runtime_error);
  EXPECT_THROW(controller.restore("{}"), std::runtime_error);
  EXPECT_THROW(
      controller.restore(
          R"({"schema":"coca-ckpt-v0","controller":"COCA","slot":0,"queue":{"q":0}})"),
      std::runtime_error);
  // A v1 blob (which carried the per-slot queue history) is refused by the
  // schema check rather than half-read.
  try {
    controller.restore(
        R"({"schema":"coca-ckpt-v1","controller":"COCA","slot":2,"queue":{"q":3,"history":[1,3]}})");
    ADD_FAILURE() << "a coca-ckpt-v1 blob was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown schema"), std::string::npos)
        << e.what();
  }

  // A blob from a different controller type is refused.
  core::DynamicRecCocaController other(fleet, coca_config(), market_config());
  EXPECT_THROW(controller.restore(other.checkpoint(0)), std::runtime_error);

  // Invalid restored state (negative queue) is refused by the queue itself.
  EXPECT_THROW(
      controller.restore(
          R"({"schema":"coca-ckpt-v2","controller":"COCA","slot":0,"queue":{"q":-1}})"),
      std::invalid_argument);

  // A corrupt blob nested far past any real checkpoint is rejected by the
  // parser's depth limit instead of overflowing the stack.
  EXPECT_THROW(controller.restore(std::string(100000, '[')),
               std::runtime_error);
}

// --- Crash/restart through the simulator ---

TEST(CheckpointSim, CadenceOneCrashIsBitIdenticalUnderStaticRecs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::CocaController clean_ctrl(fleet, coca_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});

  Schedule schedule;
  schedule.crashes = {{.slot = 13}};
  schedule.checkpoint_every = 1;  // no slots lost
  core::CocaController crash_ctrl(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  EXPECT_EQ(crashed.faults.crash_restarts, 1);
  // Initial blob + one per slot.
  EXPECT_EQ(crashed.faults.checkpoints_taken,
            static_cast<std::int64_t>(kSlots) + 1);
  expect_metrics_bitwise_equal(clean.metrics, crashed.metrics);
}

TEST(CheckpointSim, CadenceOneCrashIsBitIdenticalUnderDynamicRecs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::DynamicRecCocaController clean_ctrl(fleet, coca_config(),
                                            market_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});
  ASSERT_GT(clean.metrics.total_rec_cost(), 0.0);  // dynamic spend billed

  Schedule schedule;
  schedule.crashes = {{.slot = 9}, {.slot = 21}};
  schedule.checkpoint_every = 1;
  core::DynamicRecCocaController crash_ctrl(fleet, coca_config(),
                                            market_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  EXPECT_EQ(crashed.faults.crash_restarts, 2);
  expect_metrics_bitwise_equal(clean.metrics, crashed.metrics);
  EXPECT_EQ(clean.metrics.total_rec_cost(), crashed.metrics.total_rec_cost());
}

TEST(CheckpointSim, CadenceKCrashRollsBackExactlyToTheLastCheckpoint) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::CocaController clean_ctrl(fleet, coca_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});

  // Cadence 4: blobs capture state up to slots 4, 8, 12 (written after
  // slots 3, 7, 11).  Crashing before slot 14 restores checkpoint(12) —
  // the end-of-slot-11 queue — losing slots 12 and 13.
  Schedule schedule;
  schedule.crashes = {{.slot = 14}};
  schedule.checkpoint_every = 4;
  core::CocaController crash_ctrl(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  const auto& clean_q = clean.metrics.queue_series();
  const auto& crash_q = crashed.metrics.queue_series();
  // Identical up to the crash...
  for (std::size_t t = 0; t < 14; ++t) EXPECT_EQ(clean_q[t], crash_q[t]);
  // ...then slot 14 evolves from the restored (end-of-slot-11) queue: exact
  // Eq. 17 arithmetic on the rolled-back state.  alpha = 1, z = 0.5/slot.
  const double alpha = 1.0;
  const double expected = std::max(
      0.0, clean_q[11] + crashed.metrics.brown_series()[14] -
               alpha * (env.offsite_kwh[14] + 0.5));
  EXPECT_DOUBLE_EQ(crash_q[14], expected);
  // Bounded drift, not divergence: the restored queue differs from the
  // uninterrupted one by at most the lost window's update magnitude.
  const double lost_update = std::abs(clean_q[13] - clean_q[11]);
  EXPECT_LE(std::abs(crash_q[14] - clean_q[14]),
            lost_update + std::abs(crashed.metrics.brown_series()[14] -
                                   clean.metrics.brown_series()[14]));
}

}  // namespace
}  // namespace coca
