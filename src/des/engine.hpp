#pragma once
// A small discrete-event simulation engine: a time-ordered event queue with
// cancellation.  The paper evaluates COCA with "event-based simulations"; we
// use this engine to run job-level processor-sharing queues and validate the
// analytic M/G/1/PS delay model the optimizer relies on (Eq. 4), and — via
// des::ShardRunner — to replay individual requests at production traffic.
//
// Callbacks live in a slot-indexed store: a vector of callback slots plus a
// free list, addressed by EventId = (generation << 32 | index).  A slot's
// generation advances whenever its event fires or is cancelled, so a stale
// id (or the heap entry it left behind) does not match the slot's next
// tenant until the 32-bit generation wraps (2^32 reuses of one slot while
// the stale entry survives).  Ids are never 0 (generations start at 1), which lets callers use
// 0 as "no event".  Once the slot vector, the free list and the heap have
// grown to the peak live population, schedule/cancel/step allocate nothing
// (callbacks small enough for std::function's inline buffer — a captured
// `this` — stay inline).
//
// Cancellation is lazy: cancel() frees the slot, leaving a tombstone in the
// heap.  Under heavy traffic every PsQueue arrival and speed change cancels
// and reschedules the pending departure, so tombstones would otherwise
// outnumber live events without bound; the engine therefore compacts the
// heap whenever tombstones exceed live events, keeping heap memory O(live)
// with amortized O(1) extra work per cancel (each compaction removes at
// least half the heap and is paid for by the cancels that created the
// tombstones).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace coca::des {

class Engine {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void(Engine&)>;

  /// Schedule `fn` at absolute simulation time `time` (finite, >= now).
  EventId schedule(double time, Callback fn);
  /// Cancel a pending event; returns false if it already fired or never existed.
  bool cancel(EventId id);

  /// Execute the next pending event; false if none remain.
  bool step();
  /// Run events up to and including `time`; the clock ends at `time`.
  void run_until(double time);
  /// Run until the queue drains.
  void run_all();

  double now() const { return now_; }
  std::size_t pending() const { return live_; }
  /// Cancelled entries still occupying the heap (bounded by pending() + 1
  /// thanks to compaction; exposed so stress tests can pin the bound).
  std::size_t tombstones() const { return heap_.size() - live_; }
  /// Raw heap occupancy, live events plus tombstones.
  std::size_t heap_size() const { return heap_.size(); }

 private:
  struct QueuedEvent {
    double time;
    std::uint64_t sequence;  ///< FIFO tie-break for simultaneous events
    EventId id;
    bool operator>(const QueuedEvent& other) const {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };

  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;  ///< high word of the tenant's id
    bool live = false;
  };

  /// The slot `id` addresses, or null when `id` is stale or unknown.
  Slot* live_slot(EventId id);
  /// Retire a slot: advance its generation and return it to the free list.
  void release(std::uint32_t index);
  /// Drop tombstones and rebuild the heap; called when they exceed live
  /// events.
  void compact();

  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::size_t live_ = 0;
  std::vector<QueuedEvent> heap_;  ///< min-heap via std::*_heap + greater
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< indices of unoccupied slots
};

}  // namespace coca::des
