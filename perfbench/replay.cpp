#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <vector>

#include "checkpoint/state.hpp"
#include "cluster/machine.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "stream/pe.hpp"
#include "stream/queues.hpp"

namespace perfbench {

using namespace streamha;

namespace {

// Operations per replay trial: the workload's own count, capped so a replay
// trial stays in the tens of milliseconds, and floored so tiny counts still
// time more than the clock's resolution.
constexpr double kMinOps = 20000;
constexpr double kMaxOps = 400000;
constexpr int kTrials = 3;

std::uint64_t opsFor(double count) {
  return static_cast<std::uint64_t>(std::clamp(count, kMinOps, kMaxOps));
}

double at(const Layers& l, const std::string& key) {
  const auto it = l.find(key);
  return it == l.end() ? 0.0 : it->second;
}

/// Median over kTrials of ns/op; `trial` returns the operations it timed.
double timeNsPerOp(const char* name, SpanLog& spans, std::int64_t parent,
                   const std::function<std::uint64_t()>& trial) {
  std::array<double, kTrials> ns{};
  for (double& v : ns) {
    const std::int64_t span = spans.begin(name, parent);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t ops = trial();
    const auto t1 = std::chrono::steady_clock::now();
    spans.end(span);
    v = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(std::max<std::uint64_t>(ops, 1));
  }
  std::sort(ns.begin(), ns.end());
  return ns[kTrials / 2];
}

/// Schedule + fire with the event queue held at the workload's peak depth.
std::uint64_t scheduleFire(std::uint64_t ops, std::size_t depth) {
  Simulator sim;
  for (std::size_t i = 0; i < depth; ++i) {
    sim.scheduleAt(static_cast<SimTime>(1) << 50, [] {});
  }
  Rng rng(7);
  for (std::uint64_t i = 0; i < ops; ++i) {
    sim.schedule(1 + static_cast<SimDuration>(rng.nextU64() % 1000), [] {});
    sim.step();
  }
  return ops;
}

/// Send + deliver over every ordered pair of the workload's machines, with
/// message kinds, sizes and element counts in the workload's proportions.
std::uint64_t sendDeliver(std::uint64_t ops, const Layers& l) {
  const int machines = std::max(2, static_cast<int>(at(l, "cluster.machines")));
  struct Msg {
    MsgKind kind;
    std::size_t bytes;
    std::uint64_t elements;
  };
  std::vector<Msg> mix;
  double total = 0.0;
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    total += at(l, std::string("net.msgs.") + toString(static_cast<MsgKind>(k)));
  }
  constexpr int kMixSlots = 1000;
  for (std::size_t k = 0; k < kMsgKindCount && total > 0; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    const double msgs = at(l, std::string("net.msgs.") + toString(kind));
    if (msgs <= 0) continue;
    const double bytes = at(l, std::string("net.bytes.") + toString(kind));
    const double elements =
        kind == MsgKind::kData ? at(l, "net.elements.data") / msgs : 0.0;
    const int slots = std::max(1, static_cast<int>(kMixSlots * msgs / total));
    for (int i = 0; i < slots; ++i) {
      mix.push_back({kind, static_cast<std::size_t>(bytes / msgs),
                     static_cast<std::uint64_t>(elements + 0.5)});
    }
  }
  if (mix.empty()) mix.push_back({MsgKind::kData, 132, 1});
  Rng rng(11);
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.nextU64() % i]);
  }

  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  std::vector<std::pair<MachineId, MachineId>> links;
  for (MachineId a = 0; a < machines; ++a) {
    for (MachineId b = 0; b < machines; ++b) {
      if (a != b) links.emplace_back(a, b);
    }
  }
  for (const auto& [a, b] : links) net.send(a, b, MsgKind::kAck, 0, 0, [] {});
  sim.runAll();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Msg& m = mix[i % mix.size()];
    const auto& [src, dst] = links[rng.nextU64() % links.size()];
    net.send(src, dst, m.kind, m.bytes, m.elements, [] {});
    if (i % 8 == 7) sim.runAll();
  }
  sim.runAll();
  return ops;
}

/// Submit + complete one data task with the machine's queue held at the
/// workload's peak depth, each task costing the workload's per-PE work.
std::uint64_t submitData(std::uint64_t ops, std::size_t depth, double workUs) {
  Simulator sim;
  Machine machine(sim, 0, Rng(1));
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    machine.submitData(workUs, [&done] { ++done; });
  }
  for (std::uint64_t i = 0; i < ops; ++i) {
    machine.submitData(workUs, [&done] { ++done; });
    while (done <= i && sim.step()) {
    }
  }
  return ops;
}

/// Produce + acknowledge on an output queue carrying the workload's peak
/// unacked backlog across its widest connection fan-out. The connections are
/// inactive, so no element is sent: sending is net.send_deliver's cost.
std::uint64_t produceAck(std::uint64_t ops, std::uint64_t backlog,
                         int connections, std::uint32_t payload) {
  Simulator sim;
  Network net(sim, Network::Params{}, nullptr);
  OutputQueue oq(net, 1, 0);
  std::vector<int> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(oq.addConnection(1 + c, false, true,
                                     [](std::vector<Element>) {}));
  }
  ElementSeq seq = 0;
  for (std::uint64_t i = 0; i < backlog; ++i) seq = oq.produce(0, i, payload);
  for (std::uint64_t i = 0; i < ops; ++i) {
    seq = oq.produce(0, i, payload);
    for (int c : conns) oq.onAck(c, seq > backlog ? seq - backlog : 0);
  }
  return ops;
}

/// Receive element batches of the workload's mean data-message size, with
/// the workload's share of duplicate deliveries; counts elements.
std::uint64_t receive(std::uint64_t ops, std::size_t batchSize,
                      double duplicateShare) {
  InputQueue iq;
  iq.subscribe(1);
  std::vector<Element> batch(batchSize);
  for (Element& e : batch) e.stream = 1;
  ElementSeq seq = 1;
  double dupCredit = 0.0;
  std::uint64_t received = 0;
  while (received < ops) {
    for (Element& e : batch) e.seq = seq++;
    iq.receive(batch);
    dupCredit += duplicateShare * static_cast<double>(batchSize);
    if (dupCredit >= static_cast<double>(batchSize)) {
      dupCredit -= static_cast<double>(batchSize);
      iq.receive(batch);
    }
    while (!iq.empty()) iq.pop();
    received += batchSize;
  }
  return received;
}

/// Capture + serialize + restore one PE state of the workload's mean
/// checkpoint size (internal state plus retained output elements).
std::uint64_t serialize(std::uint64_t ops, std::size_t stateBytes,
                        std::size_t bufferedElements, std::uint32_t payload) {
  SyntheticLogic logic(1.0, stateBytes);
  SyntheticLogic restored(1.0, stateBytes);
  std::vector<Element> buffered(bufferedElements);
  for (std::size_t i = 0; i < buffered.size(); ++i) {
    buffered[i].stream = 1;
    buffered[i].seq = i + 1;
    buffered[i].payloadBytes = payload;
  }
  std::uint64_t bytes = 0;  // Keeps the sizing call from being optimised out.
  for (std::uint64_t i = 0; i < ops; ++i) {
    PeState state;
    state.pe = 0;
    state.version = i;
    state.internal = logic.serialize();
    state.processedWatermark[1] = i;
    state.ports.push_back({1, i + 1, buffered});
    bytes += state.sizeBytes();
    restored.deserialize(state.internal);
  }
  return bytes > 0 ? ops : 0;
}

}  // namespace

void runReplays(const ScenarioParams& params, Layers& l, SpanLog& spans,
                std::int64_t parentSpan) {
  const std::int64_t root = spans.begin("replays", parentSpan);
  const auto pending = static_cast<std::size_t>(at(l, "sim.pending_peak"));
  l["sim.schedule_fire_ns"] =
      timeNsPerOp("replay sim.schedule_fire", spans, root, [&] {
        return scheduleFire(opsFor(at(l, "sim.events")), pending);
      });

  double messages = 0.0;
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    messages +=
        at(l, std::string("net.msgs.") + toString(static_cast<MsgKind>(k)));
  }
  l["net.send_deliver_ns"] =
      timeNsPerOp("replay net.send_deliver", spans, root,
                  [&] { return sendDeliver(opsFor(messages), l); });

  const double processed = at(l, "stream.pe_processed");
  const auto queueDepth = static_cast<std::size_t>(at(l, "cluster.data_queue_peak"));
  l["cluster.submit_data_ns"] =
      timeNsPerOp("replay cluster.submit_data", spans, root, [&] {
        return submitData(opsFor(processed), queueDepth, params.peWorkUs);
      });

  const auto backlog =
      static_cast<std::uint64_t>(at(l, "stream.output_backlog_peak"));
  const int connections =
      std::max(1, static_cast<int>(at(l, "stream.queue_connections_max")));
  l["stream.produce_ack_ns"] =
      timeNsPerOp("replay stream.produce_ack", spans, root, [&] {
        return produceAck(opsFor(processed), backlog, connections,
                          params.payloadBytes);
      });

  const double dataMsgs = at(l, "net.msgs.data");
  const auto batchSize = static_cast<std::size_t>(std::max(
      1.0, dataMsgs > 0 ? at(l, "net.elements.data") / dataMsgs + 0.5 : 1.0));
  const double duplicateShare =
      processed > 0 ? at(l, "stream.duplicates_dropped") / processed : 0.0;
  l["stream.receive_ns"] = timeNsPerOp("replay stream.receive", spans, root, [&] {
    return receive(opsFor(processed), batchSize, duplicateShare);
  });

  const double checkpoints = at(l, "checkpoint.count");
  const double meanBytes =
      checkpoints > 0 ? at(l, "checkpoint.bytes") / checkpoints : 0.0;
  const double elementBytes = params.payloadBytes + kElementHeaderBytes;
  const auto buffered = static_cast<std::size_t>(std::max(
      0.0, (meanBytes - static_cast<double>(params.stateBytes)) / elementBytes));
  l["checkpoint.serialize_ns"] =
      timeNsPerOp("replay checkpoint.serialize", spans, root, [&] {
        return serialize(opsFor(checkpoints), params.stateBytes, buffered,
                         params.payloadBytes);
      });
  spans.end(root);
}

}  // namespace perfbench
