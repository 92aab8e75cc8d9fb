// Deterministic discrete-event simulator.
//
// Every substrate (machines, network, detectors, checkpoint managers) drives
// itself by scheduling events here. Events with equal timestamps fire in
// insertion order, which makes whole-cluster runs bit-reproducible.
//
// The event loop is allocation-lean: closures live in a pool of
// generation-counted slots (reused across events, no per-event heap token),
// the priority queue holds plain {when, seq, slot, generation} records, and
// closures up to EventFn::kInlineBytes never touch the heap at all. A
// steady-state schedule/fire cycle performs zero allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace streamha {

namespace sim_detail {

/// Pool of event slots. Shared (not owned) by the Simulator so that
/// EventHandles outliving the simulator stay safe to query and cancel.
struct SlotPool {
  struct Slot {
    /// Bumped on every release (fire or cancel); a handle or queue entry is
    /// live iff its recorded generation still matches. 64-bit: never wraps.
    std::uint64_t generation = 1;
    EventFn fn;
  };

  std::vector<Slot> slots;
  std::vector<std::uint32_t> free_list;

  bool live(std::uint32_t slot, std::uint64_t generation) const {
    return slot < slots.size() && slots[slot].generation == generation;
  }

  std::uint32_t acquire(EventFn fn) {
    std::uint32_t index;
    if (!free_list.empty()) {
      index = free_list.back();
      free_list.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots.size());
      slots.emplace_back();
    }
    slots[index].fn = std::move(fn);
    return index;
  }

  /// Invalidate the slot's handles and recycle it. The closure is destroyed
  /// here, not at fire/cancel *dispatch*, so captured resources release
  /// promptly even for events cancelled long before their deadline.
  void release(std::uint32_t index) {
    ++slots[index].generation;
    slots[index].fn.reset();
    free_list.push_back(index);
  }
};

}  // namespace sim_detail

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const {
    return pool_ != nullptr && pool_->live(slot_, generation_);
  }

  /// Cancel the event if still pending. Safe to call repeatedly.
  void cancel() {
    if (pending()) pool_->release(slot_);
  }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<sim_detail::SlotPool> pool, std::uint32_t slot,
              std::uint64_t generation)
      : pool_(std::move(pool)), slot_(slot), generation_(generation) {}

  std::shared_ptr<sim_detail::SlotPool> pool_;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() : pool_(std::make_shared<sim_detail::SlotPool>()) {}
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now (delay >= 0).
  EventHandle schedule(SimDuration delay, EventFn fn);

  /// Schedule `fn` at absolute time `when` (>= now()).
  EventHandle scheduleAt(SimTime when, EventFn fn);

  /// Run events until the queue is empty or the next live event would exceed
  /// `until`. Time is advanced to `until` on return.
  void runUntil(SimTime until);

  /// Run all pending events (use with care: periodic timers never drain).
  void runAll();

  /// Execute a single event if one is pending; returns false otherwise.
  bool step();

  std::size_t pendingEvents() const { return queue_.size(); }
  std::uint64_t firedEvents() const { return fired_; }

  /// High-water mark of the slot pool (white-box: a steady-state
  /// schedule/fire cycle must reuse slots, not grow this).
  std::size_t slotCapacity() const { return pool_->slots.size(); }

 private:
  /// Plain record in the priority queue; the closure stays in its slot. Heap
  /// sift operations therefore move 32-byte PODs, never closures.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t generation;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Pop queue entries whose slot generation no longer matches (cancelled
  /// or superseded); the queue top is live or absent afterwards.
  void dropDeadTop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::shared_ptr<sim_detail::SlotPool> pool_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace streamha
