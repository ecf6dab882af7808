// Tests for the sharded request-level replay substrate: the exact-merge tail
// histogram, the SplitMix64 stream-seed derivation, and des::ShardRunner's
// determinism contract (bit-identical across shard counts, thread counts and
// observation).

#include "des/shard_runner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dc/fleet.hpp"
#include "des/slot_replay.hpp"
#include "obs/tail_histogram.hpp"
#include "util/rng.hpp"

namespace coca::des {
namespace {

using obs::TailHistogram;

// --- TailHistogram: the exact-merge quantile substrate ---

TEST(TailHistogram, QuantileReturnsConservativeBinEdge) {
  TailHistogram hist;
  for (int i = 0; i < 99; ++i) hist.record(1.0);
  hist.record(100.0);
  EXPECT_EQ(hist.total(), 100u);
  // Ranks 50 and 99 land in 1.0's bin, rank 100 in 100.0's bin.  The
  // reported quantile is the bin's upper edge: conservative, with relative
  // error bounded by 1/bins_per_octave.
  const double slack = 1.0 / static_cast<double>(hist.config().bins_per_octave);
  EXPECT_GE(hist.quantile(0.50), 1.0);
  EXPECT_LE(hist.quantile(0.50), 1.0 + slack);
  EXPECT_GE(hist.quantile(0.99), 1.0);
  EXPECT_LE(hist.quantile(0.99), 1.0 + slack);
  EXPECT_GE(hist.quantile(0.999), 100.0);
  EXPECT_LE(hist.quantile(0.999), 100.0 * (1.0 + slack));
  EXPECT_EQ(TailHistogram().quantile(0.5), 0.0);  // empty
}

TEST(TailHistogram, MergeIsExactAndOrderIndependent) {
  util::Rng rng(123);
  std::vector<TailHistogram> parts(4);
  TailHistogram streamed;
  for (auto& part : parts) {
    for (int i = 0; i < 1000; ++i) {
      const double value = rng.exponential(0.3);
      part.record(value);
      streamed.record(value);
    }
  }
  TailHistogram forward;
  TailHistogram backward;
  for (const auto& part : parts) forward.merge(part);
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) backward.merge(*it);
  EXPECT_EQ(forward.counts(), streamed.counts());
  EXPECT_EQ(backward.counts(), streamed.counts());
  EXPECT_EQ(forward.total(), 4000u);
}

TEST(TailHistogram, AddToBinRebuildsSparseDeltas) {
  // The shard runner rebuilds each slot's histogram from sparse
  // (bin, count) deltas; the rebuild must equal recording the same values.
  TailHistogram recorded;
  recorded.record(1.0);
  recorded.record(2.0);
  recorded.record(2.0);
  recorded.record(4.0);
  TailHistogram rebuilt;
  const auto& counts = recorded.counts();
  for (std::size_t bin = 0; bin < counts.size(); ++bin) {
    if (counts[bin] != 0) rebuilt.add_to_bin(bin, counts[bin]);
  }
  EXPECT_EQ(rebuilt.counts(), recorded.counts());
  EXPECT_EQ(rebuilt.total(), 4u);
  EXPECT_EQ(rebuilt.quantile(0.5), recorded.quantile(0.5));
  EXPECT_GE(rebuilt.quantile(1.0), 4.0);
  EXPECT_THROW(rebuilt.add_to_bin(counts.size(), 1), std::out_of_range);
  EXPECT_EQ(rebuilt.total(), 4u);
}

TEST(TailHistogram, ConfigMismatchAndBadConfigThrow) {
  TailHistogram narrow(TailHistogram::Config{-10, 10, 16});
  EXPECT_THROW(TailHistogram().merge(narrow), std::invalid_argument);
  EXPECT_THROW((TailHistogram(TailHistogram::Config{5, 5, 16})),
               std::invalid_argument);
  EXPECT_THROW((TailHistogram(TailHistogram::Config{-5, 5, 0})),
               std::invalid_argument);
}

TEST(TailHistogram, OutOfRangeValuesClampIntoSentinelBins) {
  TailHistogram hist;
  hist.record(0.0);
  hist.record(-3.0);
  hist.record(1e-30);
  hist.record(1e30);
  EXPECT_EQ(hist.total(), 4u);
  // Ranks 1-3 sit in the underflow bin, rank 4 in the overflow bin; totals
  // always balance so cross-shard merges stay exact.
  EXPECT_DOUBLE_EQ(hist.quantile(0.75),
                   std::ldexp(1.0, hist.config().min_exponent));
  EXPECT_DOUBLE_EQ(hist.quantile(1.0),
                   std::ldexp(1.0, hist.config().max_exponent));
}

// --- stream_seed: the replay-seed -> group-stream derivation ---

TEST(StreamSeed, AdjacentBaseSeedsShareNoStreams) {
  // Regression for the additive derivation `seed + stream`, under which two
  // replays seeded s and s+1 reused each other's streams shifted by one
  // group (old_stream(s, g + 1) == old_stream(s + 1, g)) — silently
  // correlating measurements that are supposed to be independent samples.
  constexpr std::uint64_t kSeed = 9;
  constexpr std::uint64_t kGroups = 256;
  std::set<std::uint64_t> streams;
  for (std::uint64_t g = 0; g < kGroups; ++g) {
    streams.insert(stream_seed(kSeed, g));
  }
  EXPECT_EQ(streams.size(), kGroups);  // no collisions within one replay
  EXPECT_NE(stream_seed(kSeed, 1), stream_seed(kSeed + 1, 0));
  for (std::uint64_t g = 0; g < kGroups; ++g) {
    EXPECT_EQ(streams.count(stream_seed(kSeed + 1, g)), 0u) << "group " << g;
  }
}

TEST(StreamSeed, AdjacentSeedMeasurementsDecorrelate) {
  // The exact pair the old derivation collided: replay seed 9's stream 1
  // equaled replay seed 10's stream 0, so these two measurements were the
  // same sample.  They must now differ.
  const auto a = measure_ps_server(5.0, 10.0, 500.0, stream_seed(9, 1));
  const auto b = measure_ps_server(5.0, 10.0, 500.0, stream_seed(10, 0));
  EXPECT_NE(a.arrivals, b.arrivals);
  EXPECT_NE(a.mean_jobs_in_system, b.mean_jobs_in_system);
}

// --- measure_ps_server: censoring visibility ---

TEST(PsMeasurement, ArrivalsSplitIntoCompletionsAndInFlight) {
  const auto m = measure_ps_server(8.0, 10.0, 2000.0, 11);
  EXPECT_GT(m.arrivals, 0u);
  EXPECT_EQ(m.arrivals, m.completions + m.in_flight);
}

// --- ShardRunner: the determinism contract ---

/// A small synthetic decision sequence exercising speed changes, load
/// changes, and groups switched off mid-replay.
std::vector<dc::Allocation> diurnal_decisions(const dc::Fleet& fleet,
                                              std::size_t slots) {
  std::vector<dc::Allocation> out;
  out.reserve(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    dc::Allocation alloc(fleet.group_count());
    for (std::size_t g = 0; g < fleet.group_count(); ++g) {
      const auto& spec = fleet.group(g).spec();
      const std::size_t level = (t + g) % spec.level_count();
      const double active = static_cast<double>(3 + g);
      const double utilization = 0.3 + 0.1 * static_cast<double>((t + g) % 5);
      const bool off = g == 0 && t % 3 == 2;
      alloc[g] = {level, active,
                  off ? 0.0
                      : utilization * spec.level(level).service_rate * active};
    }
    out.push_back(std::move(alloc));
  }
  return out;
}

ShardReplayResult run_layout(const dc::Fleet& fleet,
                             const std::vector<dc::Allocation>& decisions,
                             std::size_t shards, std::size_t threads,
                             bool trace) {
  ShardReplayConfig config;
  config.seconds_per_slot = 30.0;
  config.shards = shards;
  config.threads = threads;
  config.trace_slots = trace;
  ShardRunner runner(fleet, config);
  return runner.replay(decisions);
}

void expect_bit_identical(const ShardReplayResult& a,
                          const ShardReplayResult& b) {
  EXPECT_EQ(a.sojourn.counts(), b.sojourn.counts());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.total_response_seconds, b.total_response_seconds);  // bitwise
  EXPECT_EQ(a.area_jobs, b.area_jobs);                            // bitwise
}

TEST(ShardRunner, ReplayIsInvariantToShardAndThreadLayout) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(5, 10);
  const auto decisions = diurnal_decisions(fleet, 6);
  const auto reference = run_layout(fleet, decisions, 1, 1, false);
  EXPECT_GT(reference.requests, 1000u);
  EXPECT_EQ(reference.requests, reference.completions + reference.in_flight);
  const std::array<std::pair<std::size_t, std::size_t>, 3> layouts{
      {{3, 4}, {5, 2}, {2, 8}}};
  for (const auto& [shards, threads] : layouts) {
    expect_bit_identical(reference,
                         run_layout(fleet, decisions, shards, threads, false));
  }
}

TEST(ShardRunner, TracingIsAPureObservation) {
  // Reading per-slot stats and quantiles must not perturb the replay: the
  // traced run's final state is bit-identical to the untraced run's.
  const dc::Fleet fleet = dc::make_homogeneous_fleet(4, 8);
  const auto decisions = diurnal_decisions(fleet, 5);
  const auto untraced = run_layout(fleet, decisions, 4, 2, false);
  const auto traced = run_layout(fleet, decisions, 4, 2, true);
  expect_bit_identical(untraced, traced);

  // The trace is internally consistent: per-slot deltas sum to the totals
  // and the final boundary's residency matches.
  ASSERT_EQ(traced.slot_traces.size(), decisions.size());
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  for (const auto& slot : traced.slot_traces) {
    arrivals += slot.arrivals;
    completions += slot.completions;
    EXPECT_LE(slot.p50_s, slot.p99_s);
    EXPECT_LE(slot.p99_s, slot.p999_s);
  }
  EXPECT_EQ(arrivals, traced.requests);
  EXPECT_EQ(completions, traced.completions);
  EXPECT_EQ(traced.slot_traces.back().in_flight, traced.in_flight);
}

TEST(ShardRunner, SlotTracesAreInvariantToShardAndThreadLayout) {
  // Each shard records its own per-slot tallies and sparse histogram
  // deltas; the rows assembled after the join must not depend on how the
  // groups were dealt out or how many workers ran them.
  const dc::Fleet fleet = dc::make_homogeneous_fleet(5, 10);
  const auto decisions = diurnal_decisions(fleet, 6);
  const auto reference = run_layout(fleet, decisions, 1, 1, true);
  ASSERT_EQ(reference.slot_traces.size(), decisions.size());
  const std::array<std::pair<std::size_t, std::size_t>, 4> layouts{
      {{5, 1}, {3, 4}, {5, 2}, {2, 8}}};
  for (const auto& [shards, threads] : layouts) {
    const auto traced = run_layout(fleet, decisions, shards, threads, true);
    expect_bit_identical(reference, traced);
    ASSERT_EQ(traced.slot_traces.size(), reference.slot_traces.size());
    for (std::size_t t = 0; t < traced.slot_traces.size(); ++t) {
      const DesSlotTrace& want = reference.slot_traces[t];
      const DesSlotTrace& got = traced.slot_traces[t];
      EXPECT_EQ(got.t, want.t);
      EXPECT_EQ(got.arrivals, want.arrivals);
      EXPECT_EQ(got.completions, want.completions);
      EXPECT_EQ(got.in_flight, want.in_flight);
      EXPECT_EQ(got.p50_s, want.p50_s);  // bitwise
      EXPECT_EQ(got.p99_s, want.p99_s);
      EXPECT_EQ(got.p999_s, want.p999_s);
      EXPECT_EQ(to_json_line(got), to_json_line(want))
          << shards << " shards, " << threads << " threads, slot " << t;
    }
  }
}

TEST(ShardRunner, SlotTracesMatchPrefixReplays) {
  // An independent reference for the per-slot rows: replaying only the
  // first t + 1 slots ends exactly at slot t's boundary, so two adjacent
  // prefix replays bracket slot t.  Their difference must reproduce the
  // traced row: counts, residency and the slot's own quantiles.
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 6);
  const auto decisions = diurnal_decisions(fleet, 4);
  const auto traced = run_layout(fleet, decisions, 3, 2, true);
  ASSERT_EQ(traced.slot_traces.size(), decisions.size());
  ShardReplayResult before = run_layout(fleet, {}, 1, 1, false);
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const std::vector<dc::Allocation> prefix(decisions.begin(),
                                             decisions.begin() + t + 1);
    const auto upto = run_layout(fleet, prefix, 1, 1, false);
    TailHistogram slot_hist;
    const auto& now = upto.sojourn.counts();
    const auto& then = before.sojourn.counts();
    for (std::size_t bin = 0; bin < now.size(); ++bin) {
      slot_hist.add_to_bin(bin, now[bin] - then[bin]);
    }
    const DesSlotTrace& row = traced.slot_traces[t];
    EXPECT_EQ(row.arrivals, upto.requests - before.requests) << "slot " << t;
    EXPECT_EQ(row.completions, upto.completions - before.completions);
    EXPECT_EQ(row.in_flight, upto.in_flight);
    EXPECT_EQ(row.p50_s, slot_hist.quantile(0.50));
    EXPECT_EQ(row.p99_s, slot_hist.quantile(0.99));
    EXPECT_EQ(row.p999_s, slot_hist.quantile(0.999));
    before = upto;
  }
}

TEST(ShardRunner, RejectsNonFiniteOrOutOfSpecDecisions) {
  // Regression: an infinite load reached JobSource::set_rate and hung the
  // replay; NaN loads and out-of-range levels were not checked either.
  // Every decision is validated before any engine is built.
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto good = diurnal_decisions(fleet, 3);
  ShardReplayConfig config;
  config.seconds_per_slot = 30.0;  // run_layout's slot length
  config.shards = 3;
  config.threads = 2;
  ShardRunner runner(fleet, config);
  const auto corrupt = [&](auto&& edit) {
    auto decisions = good;
    edit(decisions.back()[1]);
    return decisions;
  };
  const std::vector<std::vector<dc::Allocation>> bad{
      corrupt([&](dc::GroupAllocation& a) { a.load = inf; }),
      corrupt([&](dc::GroupAllocation& a) { a.load = nan; }),
      corrupt([&](dc::GroupAllocation& a) { a.load = -1.0; }),
      corrupt([&](dc::GroupAllocation& a) { a.active = nan; }),
      corrupt([&](dc::GroupAllocation& a) { a.active = inf; }),
      corrupt([&](dc::GroupAllocation& a) { a.active = -2.0; }),
      corrupt([&](dc::GroupAllocation& a) {
        a.level = fleet.group(1).spec().level_count();
      }),
      corrupt([&](dc::GroupAllocation& a) {
        a.active = 1e-300;
        a.load = 1e300;  // per-server rate overflows to Inf
      }),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW((void)runner.replay(bad[i]), std::invalid_argument)
        << "case " << i;
  }
  // The runner keeps no state from a rejected replay.
  expect_bit_identical(runner.replay(good),
                       run_layout(fleet, good, 1, 1, false));
}

TEST(ShardRunner, ValidatesConfigAndDecisions) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 4);
  ShardReplayConfig config;
  config.seconds_per_slot = 0.0;
  EXPECT_THROW(ShardRunner(fleet, config), std::invalid_argument);

  ShardRunner runner(fleet, ShardReplayConfig{});
  EXPECT_EQ(runner.shard_count(), 1u);
  std::vector<dc::Allocation> wrong(1, dc::Allocation(2));
  EXPECT_THROW((void)runner.replay(wrong), std::invalid_argument);

  // More shards than groups clamps rather than spawning empty shards.
  ShardReplayConfig wide;
  wide.shards = 64;
  EXPECT_EQ(ShardRunner(fleet, wide).shard_count(), fleet.group_count());
}

TEST(ShardRunner, EmptyDecisionsYieldEmptyResult) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 2);
  ShardRunner runner(fleet, ShardReplayConfig{});
  const auto result = runner.replay({});
  EXPECT_EQ(result.requests, 0u);
  EXPECT_EQ(result.sojourn.total(), 0u);
  EXPECT_EQ(result.mean_response_seconds(), 0.0);
  EXPECT_EQ(result.mean_jobs_in_system(), 0.0);
}

TEST(DesSlotTrace, JsonLineHasFixedKeyOrder) {
  DesSlotTrace slot;
  slot.t = 3;
  slot.arrivals = 10;
  slot.completions = 9;
  slot.in_flight = 1;
  slot.p50_s = 0.5;
  slot.p99_s = 2.0;
  slot.p999_s = 4.0;
  EXPECT_EQ(to_json_line(slot),
            "{\"t\":3,\"arrivals\":10,\"completions\":9,\"in_flight\":1,"
            "\"p50_s\":0.5,\"p99_s\":2,\"p999_s\":4}");
}

}  // namespace
}  // namespace coca::des
