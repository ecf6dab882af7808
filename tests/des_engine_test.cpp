// Tests for the discrete-event engine: ordering, cancellation, clock
// semantics, input validation, and the allocation-free steady state of the
// engine and the processor-sharing queue.
//
// This executable replaces the global allocation functions with counting
// ones, so a test can assert that a warm hot loop never reaches the heap.

#include "des/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "des/ps_queue.hpp"
#include "obs/tail_histogram.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* block = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    block = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    block = std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
  }
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}

namespace coca::des {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(3.0, [&](Engine&) { order.push_back(3); });
  engine.schedule(1.0, [&](Engine&) { order.push_back(1); });
  engine.schedule(2.0, [&](Engine&) { order.push_back(2); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(1.0, [&](Engine&) { order.push_back(1); });
  engine.schedule(1.0, [&](Engine&) { order.push_back(2); });
  engine.schedule(1.0, [&](Engine&) { order.push_back(3); });
  engine.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  int fired = 0;
  const auto id = engine.schedule(1.0, [&](Engine&) { ++fired; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // double cancel
  engine.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule(1.0, [&](Engine&) { ++fired; });
  engine.schedule(2.0, [&](Engine&) { ++fired; });
  engine.schedule(5.0, [&](Engine&) { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  std::vector<double> times;
  engine.schedule(1.0, [&](Engine& e) {
    times.push_back(e.now());
    e.schedule(e.now() + 1.5, [&](Engine& e2) { times.push_back(e2.now()); });
  });
  engine.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine engine;
  engine.schedule(5.0, [](Engine&) {});
  engine.run_all();
  EXPECT_THROW(engine.schedule(1.0, [](Engine&) {}), std::invalid_argument);
}

TEST(Engine, PendingCountExcludesCancelled) {
  Engine engine;
  const auto a = engine.schedule(1.0, [](Engine&) {});
  engine.schedule(2.0, [](Engine&) {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
}

TEST(Engine, TombstonesCountCancelledHeapEntries) {
  Engine engine;
  const auto a = engine.schedule(1.0, [](Engine&) {});
  engine.schedule(2.0, [](Engine&) {});
  EXPECT_EQ(engine.tombstones(), 0u);
  engine.cancel(a);
  // One tombstone against one live event: at the compaction threshold but
  // not over it, so the entry stays until it is popped or outnumbered.
  EXPECT_EQ(engine.tombstones(), 1u);
  EXPECT_EQ(engine.heap_size(), 2u);
  engine.run_all();
  EXPECT_EQ(engine.tombstones(), 0u);
  EXPECT_EQ(engine.heap_size(), 0u);
}

TEST(Engine, TombstoneCompactionBoundsHeapUnderCancelChurn) {
  // Regression: lazy cancellation used to leave every cancelled entry in the
  // heap until its time came up.  The PsQueue departure pattern — cancel and
  // reschedule one hot event per arrival — then grew the heap linearly in
  // arrivals, not in live events.  Compaction must keep the heap O(live)
  // through 1e5 cancel/reschedule cycles.
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    engine.schedule(1e7 + i, [&](Engine&) { ++fired; });
  }
  auto hot = engine.schedule(10.0, [&](Engine&) { ++fired; });
  std::size_t peak_heap = 0;
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    ASSERT_TRUE(engine.cancel(hot));
    hot = engine.schedule(10.0 + 1e-3 * cycle, [&](Engine&) { ++fired; });
    peak_heap = std::max(peak_heap, engine.heap_size());
  }
  EXPECT_EQ(engine.pending(), 65u);
  // Compaction fires when tombstones exceed live events, so the heap never
  // holds more than live + (live + 1) entries.
  EXPECT_LE(peak_heap, 2 * engine.pending() + 1);
  EXPECT_LE(engine.tombstones(), engine.pending() + 1);
  engine.run_all();
  EXPECT_EQ(fired, 65);  // the surviving hot event plus the backlog
  EXPECT_EQ(engine.heap_size(), 0u);
}

TEST(Engine, RejectsNonFiniteTimes) {
  // Regression: schedule(NaN) used to be accepted (NaN fails `time < now`)
  // and the NaN entry then fired first, turning the clock into NaN.
  Engine engine;
  int fired = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.schedule(nan, [&](Engine&) { ++fired; }),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule(inf, [&](Engine&) { ++fired; }),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule(-inf, [&](Engine&) { ++fired; }),
               std::invalid_argument);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.heap_size(), 0u);
  engine.schedule(1.0, [&](Engine&) { ++fired; });
  EXPECT_THROW(engine.run_until(nan), std::invalid_argument);
  engine.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 1.0);
}

TEST(Engine, StaleAndForeignIdsDoNotCancelLiveEvents) {
  // Ids carry a slot generation: once an event fires or is cancelled, its id
  // must not address the slot's next tenant.
  Engine engine;
  int fired = 0;
  const auto first = engine.schedule(1.0, [&](Engine&) { ++fired; });
  EXPECT_NE(first, 0u);
  ASSERT_TRUE(engine.cancel(first));
  const auto second = engine.schedule(2.0, [&](Engine&) { ++fired; });
  EXPECT_NE(second, first);  // the slot is reused under a new generation
  EXPECT_FALSE(engine.cancel(first));
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_FALSE(engine.cancel(second + 1));  // an index never handed out
  EXPECT_EQ(engine.pending(), 1u);
  engine.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.cancel(second));  // already fired
}

TEST(Engine, WarmScheduleCancelStepCyclesAllocateNothing) {
  // Once the slot store, the free list and the heap have grown to the live
  // population, the event hot path must not touch the heap allocator: the
  // sharded replay runs millions of events per shard on pool workers.
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    engine.schedule(1e9 + i, [&](Engine&) { ++fired; });
  }
  const auto cycle = [&](int i) {
    const double now = engine.now();
    const auto doomed = engine.schedule(now + 2.0, [&](Engine&) { ++fired; });
    engine.cancel(doomed);
    engine.schedule(now + 1.0 + 1e-3 * (i % 7), [&](Engine&) { ++fired; });
    engine.step();
  };
  for (int i = 0; i < 1'000; ++i) cycle(i);  // warm-up
  const std::size_t before = allocations();
  for (int i = 0; i < 100'000; ++i) cycle(i);
  const std::size_t during = allocations() - before;
  EXPECT_EQ(during, 0u);
  EXPECT_EQ(fired, 101'000);
  EXPECT_EQ(engine.pending(), 64u);
}

TEST(PsQueue, WarmArrivalDepartureRunAllocatesNothing) {
  // A bounded population (at most 8 resident jobs) cycling through
  // arrivals, speed changes and departures: after one warm busy period the
  // job heap and the engine never allocate again.
  Engine engine;
  PsQueue queue(engine, 4.0);
  obs::TailHistogram sojourns;
  queue.set_sojourn_sink(&sojourns);
  const auto busy_period = [&](int period) {
    const double start = engine.now();
    for (int j = 0; j < 8; ++j) {
      engine.schedule(start + 0.01 * j, [&queue, j](Engine&) {
        queue.arrive(0.5 + 0.25 * j);
      });
    }
    engine.schedule(start + 0.05, [&queue, period](Engine&) {
      queue.set_speed(period % 2 == 0 ? 2.0 : 4.0);
    });
    engine.run_until(start + 100.0);
  };
  busy_period(0);  // warm-up
  const std::size_t before = allocations();
  for (int period = 1; period <= 1'000; ++period) busy_period(period);
  const std::size_t during = allocations() - before;
  EXPECT_EQ(during, 0u);
  EXPECT_EQ(queue.jobs_in_system(), 0u);
  EXPECT_EQ(queue.stats().completions, 8u * 1'001u);
  EXPECT_EQ(sojourns.total(), 8u * 1'001u);
}

}  // namespace
}  // namespace coca::des
