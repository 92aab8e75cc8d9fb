#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/reliable.hpp"
#include "trace/recorder.hpp"

namespace streamha {

std::uint64_t Network::Counters::totalMessages() const {
  std::uint64_t total = 0;
  for (auto v : messages) total += v;
  return total;
}

std::uint64_t Network::Counters::totalBytes() const {
  std::uint64_t total = 0;
  for (auto v : bytes) total += v;
  return total;
}

std::uint64_t Network::Counters::totalElements() const {
  std::uint64_t total = 0;
  for (auto v : elements) total += v;
  return total;
}

Network::Counters Network::Counters::operator-(const Counters& other) const {
  Counters out;
  for (std::size_t i = 0; i < kMsgKindCount; ++i) {
    out.messages[i] = messages[i] - other.messages[i];
    out.bytes[i] = bytes[i] - other.bytes[i];
    out.elements[i] = elements[i] - other.elements[i];
  }
  return out;
}

Network::Network(Simulator& sim, Params params,
                 std::function<bool(MachineId)> machineUp)
    : sim_(sim), params_(params), machine_up_(std::move(machineUp)) {}

Network::~Network() = default;

void Network::enableReliable(const ReliableParams& params) {
  reliable_ = std::make_unique<ReliableDelivery>(sim_, *this, params);
}

void Network::sendReliable(MachineId src, MachineId dst, MsgKind kind,
                           std::size_t bytes, std::uint64_t elements,
                           std::function<void()> deliver) {
  if (reliable_) {
    reliable_->send(src, dst, kind, bytes, elements, std::move(deliver));
  } else {
    send(src, dst, kind, bytes, elements, std::move(deliver));
  }
}

void Network::sendReliableKeyed(MachineId src, MachineId dst, MsgKind kind,
                                std::size_t bytes, std::uint64_t elements,
                                std::uint64_t supersedeKey,
                                std::function<void()> deliver) {
  if (reliable_) {
    reliable_->send(src, dst, kind, bytes, elements, std::move(deliver),
                    supersedeKey);
  } else {
    send(src, dst, kind, bytes, elements, std::move(deliver));
  }
}

void Network::send(MachineId src, MachineId dst, MsgKind kind,
                   std::size_t bytes, std::uint64_t elements,
                   std::function<void()> deliver) {
  const auto idx = static_cast<std::size_t>(kind);
  assert(idx < kMsgKindCount);

  // A crashed machine sends nothing.
  if (machine_up_ && !machine_up_(src)) return;

  if (src == dst) {
    // Loopback: no network traffic is generated or counted.
    sim_.schedule(params_.localDelay, [this, dst, deliver = std::move(deliver)] {
      if (!machine_up_ || machine_up_(dst)) deliver();
    });
    return;
  }

  ++counters_.messages[idx];
  counters_.bytes[idx] += bytes;
  counters_.elements[idx] += elements;

  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kMessageSent;
    ev.at = sim_.now();
    ev.machine = src;
    ev.peer = dst;
    ev.msgKind = kind;
    ev.value = bytes;
    ev.aux = elements;
    trace_->record(ev);
  }

  // The injector sees every cross-machine message after it was counted and
  // serialized on the sender's link (a dropped message still occupied the
  // NIC), so fault-laden runs keep honest traffic accounting.
  FaultDecision fault{};
  if (fault_) fault = fault_(src, dst, kind, bytes);

  const std::uint64_t link_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  SimTime& free_at = link_free_at_[link_key];
  const SimTime start = std::max(sim_.now(), free_at);
  const auto transmit = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) / params_.bytesPerMicro));
  free_at = start + transmit;
  const SimTime arrival = free_at + params_.latency + fault.extraDelay;
  if (fault.drop) return;

  // One scheduled event per delivery. Duplicate copies are identical events
  // at the same instant with the following insertion ranks; receivers dedup
  // by sequence watermark.
  auto deliverOnce = [this, src, dst, kind, bytes, elements,
                      deliver = std::move(deliver)] {
    if (machine_up_ && !machine_up_(dst)) return;
    if (trace_ != nullptr) {
      TraceEvent ev;
      ev.type = TraceEventType::kMessageDelivered;
      ev.at = sim_.now();
      ev.machine = dst;
      ev.peer = src;
      ev.msgKind = kind;
      ev.value = bytes;
      ev.aux = elements;
      trace_->record(ev);
    }
    deliver();
  };
  for (std::uint32_t copy = 0; copy < fault.duplicates; ++copy) {
    sim_.scheduleAt(arrival, deliverOnce);
  }
  sim_.scheduleAt(arrival, std::move(deliverOnce));
}

}  // namespace streamha
