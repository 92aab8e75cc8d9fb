#include "sim/simulator.hpp"

#include <cassert>

namespace streamha {

Simulator::~Simulator() {
  // Closures may capture resources whose lifetime is tied to the cluster
  // under simulation; destroy them now rather than whenever the last
  // outstanding EventHandle drops the pool.
  for (auto& slot : pool_->slots) {
    ++slot.generation;
    slot.fn.reset();
  }
}

EventHandle Simulator::schedule(SimDuration delay, EventFn fn) {
  assert(delay >= 0);
  return scheduleAt(now_ + delay, std::move(fn));
}

EventHandle Simulator::scheduleAt(SimTime when, EventFn fn) {
  assert(when >= now_);
  std::uint32_t slot = pool_->acquire(std::move(fn));
  std::uint64_t generation = pool_->slots[slot].generation;
  queue_.push(Entry{when, next_seq_++, slot, generation});
  return EventHandle(pool_, slot, generation);
}

void Simulator::dropDeadTop() {
  while (!queue_.empty() &&
         !pool_->live(queue_.top().slot, queue_.top().generation)) {
    queue_.pop();
  }
}

void Simulator::runUntil(SimTime until) {
  for (;;) {
    dropDeadTop();
    if (queue_.empty() || queue_.top().when > until) break;
    step();
  }
  if (now_ < until) now_ = until;
}

void Simulator::runAll() {
  while (step()) {
  }
}

bool Simulator::step() {
  dropDeadTop();
  if (queue_.empty()) return false;
  Entry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  // Move the closure out and retire the slot *before* invoking, so handles
  // report !pending() during the fire and the slot is reusable immediately.
  EventFn fn = std::move(pool_->slots[entry.slot].fn);
  pool_->release(entry.slot);
  ++fired_;
  fn();
  return true;
}

}  // namespace streamha
