#include "des/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace coca::des {

namespace {

std::uint32_t slot_index(Engine::EventId id) {
  return static_cast<std::uint32_t>(id);
}

std::uint32_t slot_generation(Engine::EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

Engine::EventId Engine::schedule(double time, Callback fn) {
  // Written so NaN fails: a NaN time would sort first and poison the clock.
  if (!std::isfinite(time) || !(time >= now_ - 1e-12)) {
    throw std::invalid_argument(
        "Engine::schedule: time must be finite and not in the past");
  }
  std::uint32_t index = 0;
  if (free_.empty()) {
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Engine::schedule: too many pending events");
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  ++live_;
  const EventId id = (static_cast<EventId>(slot.generation) << 32) | index;
  heap_.push_back({time, next_sequence_++, id});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<QueuedEvent>());
  return id;
}

Engine::Slot* Engine::live_slot(EventId id) {
  const std::uint32_t index = slot_index(id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != slot_generation(id)) return nullptr;
  return &slot;
}

void Engine::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  // Generation 0 is skipped so that no id is ever 0.
  if (++slot.generation == 0) slot.generation = 1;
  free_.push_back(index);
  --live_;
}

bool Engine::cancel(EventId id) {
  Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  slot->fn = nullptr;
  release(slot_index(id));
  // Lazy cancellation leaves a tombstone in the heap; compact once the dead
  // entries outnumber the live ones so heavy cancel/reschedule traffic (one
  // per PsQueue arrival) cannot grow the heap unboundedly.
  if (tombstones() > live_) compact();
  return true;
}

void Engine::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const QueuedEvent& event) {
                               return live_slot(event.id) == nullptr;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<QueuedEvent>());
}

bool Engine::step() {
  while (!heap_.empty()) {
    const QueuedEvent event = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<QueuedEvent>());
    heap_.pop_back();
    Slot* slot = live_slot(event.id);
    if (slot == nullptr) continue;  // cancelled
    Callback fn = std::move(slot->fn);
    release(slot_index(event.id));
    now_ = event.time;
    fn(*this);
    return true;
  }
  return false;
}

void Engine::run_until(double time) {
  if (std::isnan(time)) {
    throw std::invalid_argument("Engine::run_until: time is NaN");
  }
  while (!heap_.empty()) {
    // Skip cancelled heads without advancing the clock.
    const QueuedEvent head = heap_.front();
    if (live_slot(head.id) == nullptr) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<QueuedEvent>());
      heap_.pop_back();
      continue;
    }
    if (head.time > time) break;
    step();
  }
  now_ = std::max(now_, time);
}

void Engine::run_all() {
  while (step()) {
  }
}

}  // namespace coca::des
