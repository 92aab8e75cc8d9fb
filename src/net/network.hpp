// Simulated cluster interconnect.
//
// Full mesh of point-to-point links; each ordered (src, dst) pair is a FIFO
// link with fixed propagation latency and bandwidth serialization. Message
// and element counts are tracked per message kind -- these counters are what
// the traffic/overhead figures (Fig 6, 10, 11) report.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace streamha {

class TraceRecorder;
class ReliableDelivery;

/// Tuning for the control-plane ARQ layer (net/reliable.hpp). Defined here so
/// Network::enableReliable callers don't need the full ReliableDelivery type.
struct ReliableParams {
  SimDuration retryTimeout = 250 * kMillisecond;  ///< Base retry; doubles.
  int maxBackoffShift = 4;                        ///< Cap retries at 16x base.
  std::size_t headerBytes = 16;  ///< Sequence-id header per reliable message.
  std::size_t ackBytes = 24;     ///< ARQ-ack wire size (rides kControl).
  /// Per-link send window (flow/credit.hpp): cap on transmitted-but-unacked
  /// reliable messages; excess sends are parked FIFO until a credit frees.
  /// 0 = unlimited (the pre-flow-control behavior).
  std::size_t sendWindow = 0;
  /// Cap on a link's tracked backlog beyond the window -- window-full parking
  /// and the receiver-death backlog alike. Beyond it the oldest entry is
  /// evicted and counted in stats().parkedEvicted. 0 = unbounded.
  std::size_t parkedCap = 4096;
};

/// Classification of every message the protocols exchange.
enum class MsgKind : std::uint8_t {
  kData = 0,        ///< Stream elements between subjobs.
  kAck,             ///< Accumulative acknowledgments (queue trimming).
  kCheckpoint,      ///< Checkpoint state transfers to the standby store.
  kHeartbeatPing,   ///< Detector ping.
  kHeartbeatReply,  ///< Detector reply.
  kControl,         ///< Deploy / activate / suspend control messages.
  kStateRead,       ///< Read-state-on-rollback transfers.
  kBeacon,          ///< Membership announce/lease-refresh beacons.
  kCount
};

constexpr const char* toString(MsgKind kind) {
  switch (kind) {
    case MsgKind::kData: return "data";
    case MsgKind::kAck: return "ack";
    case MsgKind::kCheckpoint: return "checkpoint";
    case MsgKind::kHeartbeatPing: return "hb-ping";
    case MsgKind::kHeartbeatReply: return "hb-reply";
    case MsgKind::kControl: return "control";
    case MsgKind::kStateRead: return "state-read";
    case MsgKind::kBeacon: return "beacon";
    case MsgKind::kCount: break;
  }
  return "?";
}

inline constexpr std::size_t kMsgKindCount =
    static_cast<std::size_t>(MsgKind::kCount);

class Network {
 public:
  struct Params {
    SimDuration latency = 100;            ///< One-way propagation, microseconds.
    double bytesPerMicro = 125.0;         ///< 1 Gbps = 125 bytes / microsecond.
    SimDuration localDelay = 10;          ///< Same-machine delivery delay.
  };

  /// Per-kind traffic counters.
  struct Counters {
    std::array<std::uint64_t, kMsgKindCount> messages{};
    std::array<std::uint64_t, kMsgKindCount> bytes{};
    std::array<std::uint64_t, kMsgKindCount> elements{};

    std::uint64_t totalMessages() const;
    std::uint64_t totalBytes() const;
    std::uint64_t totalElements() const;
    std::uint64_t messagesOf(MsgKind k) const {
      return messages[static_cast<std::size_t>(k)];
    }
    std::uint64_t bytesOf(MsgKind k) const {
      return bytes[static_cast<std::size_t>(k)];
    }
    std::uint64_t elementsOf(MsgKind k) const {
      return elements[static_cast<std::size_t>(k)];
    }
    Counters operator-(const Counters& other) const;
  };

  /// Verdict of the fault-interposition hook for one message (see
  /// fault/injector.hpp). Defaults mean "deliver normally".
  struct FaultDecision {
    bool drop = false;          ///< Lose the message after serialization.
    std::uint32_t duplicates = 0;  ///< Extra deliveries of the same message.
    SimDuration extraDelay = 0;    ///< Jitter added on top of link latency.
  };
  /// Per-(src, dst, kind) interposition point consulted on every
  /// cross-machine send (loopback is exempt). Null = faultless network.
  using FaultFn =
      std::function<FaultDecision(MachineId, MachineId, MsgKind, std::size_t)>;

  Network(Simulator& sim, Params params,
          std::function<bool(MachineId)> machineUp);
  ~Network();

  /// Send a message. `elements` is the number of stream data elements the
  /// message carries (0 for pure control traffic); it feeds the
  /// element-denominated overhead counters the paper reports. `deliver` runs
  /// at the destination unless that machine is down at delivery time.
  void send(MachineId src, MachineId dst, MsgKind kind, std::size_t bytes,
            std::uint64_t elements, std::function<void()> deliver);

  /// Send with reliable-delivery semantics (retry until acked, duplicates
  /// suppressed at the receiver; see net/reliable.hpp). Falls through to
  /// plain send() while the ARQ layer is unarmed, so fault-free runs carry
  /// zero ARQ traffic. Control-plane protocols (checkpoint ship/confirm,
  /// deploy/rewire round-trips, NACKs, state reads) use this entry point.
  void sendReliable(MachineId src, MachineId dst, MsgKind kind,
                    std::size_t bytes, std::uint64_t elements,
                    std::function<void()> deliver);

  /// sendReliable with a supersede key: a nonzero key evicts any earlier
  /// unacked same-key message on the same link from the retransmit queue
  /// (the evicted message downgrades to at-most-once -- use only for
  /// idempotent control traffic a newer message subsumes, e.g. an older gap
  /// request for the same wire). Falls through to plain send() when unarmed,
  /// exactly like sendReliable.
  void sendReliableKeyed(MachineId src, MachineId dst, MsgKind kind,
                         std::size_t bytes, std::uint64_t elements,
                         std::uint64_t supersedeKey,
                         std::function<void()> deliver);

  /// Arm the control-plane ARQ layer. Scenario::build() calls this whenever a
  /// fault schedule is present; idempotent (re-arming replaces the params but
  /// keeps in-flight state only if never armed before -- arm once, early).
  void enableReliable(const ReliableParams& params);
  bool reliableEnabled() const { return reliable_ != nullptr; }
  ReliableDelivery* reliable() const { return reliable_.get(); }

  /// Whether `id` is currently up, per the cluster's liveness callback
  /// (true when no callback is installed). Lets senders -- the stall
  /// retransmit scan, the ARQ retry timer -- skip transmissions the network
  /// would drop at delivery anyway.
  bool machineUp(MachineId id) const {
    return !machine_up_ || machine_up_(id);
  }

  const Counters& counters() const { return counters_; }
  Counters snapshot() const { return counters_; }

  const Params& params() const { return params_; }

  /// Optional structured-event sink (null = tracing off, zero cost). The
  /// network is the cluster-wide object every data-plane component already
  /// references, so it doubles as the place they reach the recorder
  /// (checkpoint managers, detectors and output queues all use trace()).
  void setTrace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }

  /// Current simulated time; lets trace call sites without their own
  /// simulator reference timestamp events.
  SimTime now() const { return sim_.now(); }

  /// Install (or clear, with null) the fault-injection hook.
  void setFault(FaultFn fn) { fault_ = std::move(fn); }
  bool hasFault() const { return static_cast<bool>(fault_); }

 private:
  Simulator& sim_;
  Params params_;
  std::function<bool(MachineId)> machine_up_;
  FaultFn fault_;
  TraceRecorder* trace_ = nullptr;
  std::unique_ptr<ReliableDelivery> reliable_;
  Counters counters_;
  /// When each ordered (src, dst) link's NIC is next free (bandwidth
  /// serialization), keyed by (src << 32) | dst. Never iterated
  /// (determinism: unordered_map order is not part of any observable
  /// behavior).
  std::unordered_map<std::uint64_t, SimTime> link_free_at_;
};

}  // namespace streamha
