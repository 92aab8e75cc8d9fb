#include "net/network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace streamha {
namespace {

struct NetFixture : ::testing::Test {
  Simulator sim;
  bool machine0_up = true;
  bool machine1_up = true;

  Network makeNet(Network::Params params = {}) {
    return Network(sim, params, [this](MachineId id) {
      return id == 0 ? machine0_up : machine1_up;
    });
  }
};

TEST_F(NetFixture, DeliveryTimeIsTransmitPlusLatency) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 10 + 100);  // 1250B / 125B-per-us + latency.
}

TEST_F(NetFixture, LinkSerializesBackToBackMessages) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 120);  // Second waits for the link.
}

TEST_F(NetFixture, OppositeDirectionsDoNotSerialize) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(1, 0, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 110);
}

TEST_F(NetFixture, CountersTrackPerKind) {
  Network net = makeNet();
  net.send(0, 1, MsgKind::kData, 100, 3, [] {});
  net.send(0, 1, MsgKind::kAck, 64, 0, [] {});
  net.send(1, 0, MsgKind::kCheckpoint, 2000, 20, [] {});
  sim.runAll();
  const auto& c = net.counters();
  EXPECT_EQ(c.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kData), 3u);
  EXPECT_EQ(c.bytesOf(MsgKind::kData), 100u);
  EXPECT_EQ(c.messagesOf(MsgKind::kAck), 1u);
  EXPECT_EQ(c.elementsOf(MsgKind::kCheckpoint), 20u);
  EXPECT_EQ(c.totalMessages(), 3u);
  EXPECT_EQ(c.totalElements(), 23u);
  EXPECT_EQ(c.totalBytes(), 2164u);
}

TEST_F(NetFixture, LocalDeliveryIsNotCounted) {
  Network::Params params;
  params.localDelay = 10;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(1, 1, MsgKind::kData, 100, 1, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 10);
  EXPECT_EQ(net.counters().totalMessages(), 0u);
}

TEST_F(NetFixture, DropToCrashedMachineAtDeliveryTime) {
  Network net = makeNet();
  bool delivered = false;
  net.send(0, 1, MsgKind::kData, 100, 1, [&] { delivered = true; });
  machine1_up = false;  // Goes down before delivery.
  sim.runAll();
  EXPECT_FALSE(delivered);
  // Counters still record the send (bytes hit the wire).
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
}

TEST_F(NetFixture, CounterSubtractionGivesWindowDeltas) {
  Network net = makeNet();
  net.send(0, 1, MsgKind::kData, 100, 1, [] {});
  sim.runAll();
  const auto baseline = net.snapshot();
  net.send(0, 1, MsgKind::kData, 100, 2, [] {});
  sim.runAll();
  const auto delta = net.snapshot() - baseline;
  EXPECT_EQ(delta.messagesOf(MsgKind::kData), 1u);
  EXPECT_EQ(delta.elementsOf(MsgKind::kData), 2u);
  EXPECT_EQ(delta.bytesOf(MsgKind::kData), 100u);
  EXPECT_EQ(delta.messagesOf(MsgKind::kAck), 0u);
  EXPECT_EQ(delta.totalMessages(), 1u);
}

TEST_F(NetFixture, CrashedSenderSendsNothing) {
  Network net = makeNet();
  machine0_up = false;
  bool delivered = false;
  net.send(0, 1, MsgKind::kData, 100, 1, [&] { delivered = true; });
  sim.runAll();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.counters().totalMessages(), 0u);  // Never hit the wire.
}

TEST_F(NetFixture, ZeroByteControlMessageStillHasLatency) {
  Network::Params params;
  params.latency = 100;
  Network net = makeNet(params);
  SimTime delivered_at = -1;
  net.send(0, 1, MsgKind::kControl, 0, 0, [&] { delivered_at = sim.now(); });
  sim.runAll();
  EXPECT_EQ(delivered_at, 100);
}

TEST_F(NetFixture, CounterSubtractionCoversEveryKindAndTotals) {
  Network net = makeNet();
  // Baseline traffic: one message of every kind.
  for (int k = 0; k < kMsgKindCount; ++k) {
    net.send(0, 1, static_cast<MsgKind>(k), 10 * (k + 1),
             static_cast<std::uint64_t>(k), [] {});
  }
  sim.runAll();
  const auto baseline = net.snapshot();
  // Window traffic: two more of every kind.
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < kMsgKindCount; ++k) {
      net.send(1, 0, static_cast<MsgKind>(k), 5,
               static_cast<std::uint64_t>(k) + 1, [] {});
    }
  }
  sim.runAll();
  const auto delta = net.snapshot() - baseline;
  std::uint64_t messages = 0, elements = 0, bytes = 0;
  for (int k = 0; k < kMsgKindCount; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    EXPECT_EQ(delta.messagesOf(kind), 2u) << toString(kind);
    EXPECT_EQ(delta.elementsOf(kind), 2u * (static_cast<std::uint64_t>(k) + 1))
        << toString(kind);
    EXPECT_EQ(delta.bytesOf(kind), 10u) << toString(kind);
    messages += delta.messagesOf(kind);
    elements += delta.elementsOf(kind);
    bytes += delta.bytesOf(kind);
  }
  // The totals are consistent with the per-kind deltas.
  EXPECT_EQ(delta.totalMessages(), messages);
  EXPECT_EQ(delta.totalElements(), elements);
  EXPECT_EQ(delta.totalBytes(), bytes);
}

TEST_F(NetFixture, AllKindsShareOneLinksBandwidth) {
  // Serialization is per-(src, dst) link, not per message kind: a checkpoint
  // transfer delays a data batch queued right behind it.
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<std::pair<MsgKind, SimTime>> deliveries;
  net.send(0, 1, MsgKind::kCheckpoint, 12500, 0,
           [&] { deliveries.emplace_back(MsgKind::kCheckpoint, sim.now()); });
  net.send(0, 1, MsgKind::kData, 1250, 1,
           [&] { deliveries.emplace_back(MsgKind::kData, sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].first, MsgKind::kCheckpoint);
  EXPECT_EQ(deliveries[0].second, 100 + 100);  // 12500B / 125B-per-us.
  EXPECT_EQ(deliveries[1].first, MsgKind::kData);
  EXPECT_EQ(deliveries[1].second, 100 + 10 + 100);  // Queued behind it.
}

TEST_F(NetFixture, DistinctDestinationsAreIndependentLinks) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  std::vector<SimTime> deliveries;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  net.send(0, 2, MsgKind::kData, 1250, 1, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 110);
  EXPECT_EQ(deliveries[1], 110);  // No shared serialization.
}

TEST_F(NetFixture, FaultHookDropStillCountsAndOccupiesLink) {
  Network::Params params;
  params.latency = 100;
  params.bytesPerMicro = 125.0;
  Network net = makeNet(params);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    d.drop = (kind == MsgKind::kData);
    return d;
  });
  std::vector<SimTime> deliveries;
  bool dataDelivered = false;
  net.send(0, 1, MsgKind::kData, 1250, 1, [&] { dataDelivered = true; });
  net.send(0, 1, MsgKind::kAck, 1250, 0, [&] { deliveries.push_back(sim.now()); });
  sim.runAll();
  EXPECT_FALSE(dataDelivered);
  // The dropped message still hit the wire: counted, and the ack behind it
  // had to wait for the link.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 120);
}

TEST_F(NetFixture, FaultHookDuplicatesAndDelays) {
  Network::Params params;
  params.latency = 100;
  Network net = makeNet(params);
  net.setFault([](MachineId, MachineId, MsgKind kind, std::size_t) {
    Network::FaultDecision d;
    if (kind == MsgKind::kData) d.duplicates = 2;
    if (kind == MsgKind::kAck) d.extraDelay = 40;
    return d;
  });
  int dataDeliveries = 0;
  SimTime ackAt = -1;
  net.send(0, 1, MsgKind::kData, 0, 1, [&] { ++dataDeliveries; });
  net.send(0, 1, MsgKind::kAck, 0, 0, [&] { ackAt = sim.now(); });
  sim.runAll();
  EXPECT_EQ(dataDeliveries, 3);  // Original + 2 copies.
  EXPECT_EQ(ackAt, 140);         // Latency + injected jitter.
  // Duplicates are copies on the receive side, not extra sends.
  EXPECT_EQ(net.counters().messagesOf(MsgKind::kData), 1u);
}

// -- One scheduled event per delivery -----------------------------------------
//
// Every non-dropped message, and each duplicate copy of it, is its own
// simulator event at its arrival time. The tests pin delivery times and
// order, per-message fault and crash evaluation, and the event count; the
// expected logs were recorded from the earlier two-path network, on which
// both paths agreed.

TEST_F(NetFixture, DeliveryLogUnderDropDuplicateAndDelayFaultsIsPinned) {
  Network net = makeNet();
  // A deterministic per-call fault mix: the hook fires once per send().
  int call = 0;
  net.setFault([&call](MachineId, MachineId, MsgKind, std::size_t) {
    const int i = call++;
    Network::FaultDecision d;
    if (i % 5 == 2) d.drop = true;
    if (i % 7 == 3) d.duplicates = 2;
    if (i % 3 == 1) d.extraDelay = 40;
    return d;
  });
  std::vector<std::pair<int, SimTime>> log;
  int id = 0;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t bytes = static_cast<std::uint64_t>(i % 4) * 625;
    const int fwd = id++;
    net.send(0, 1, MsgKind::kData, bytes, 1,
             [&log, this, fwd] { log.emplace_back(fwd, sim.now()); });
    const int back = id++;
    net.send(1, 0, MsgKind::kAck, 64, 0,
             [&log, this, back] { log.emplace_back(back, sim.now()); });
  }
  sim.runAll();
  const std::vector<std::pair<int, SimTime>> expected = {
      {0, 100},  {3, 102},  {3, 102},  {3, 102},  {5, 103},  {9, 105},
      {11, 106}, {15, 108}, {21, 111}, {23, 112}, {6, 130},  {8, 130},
      {1, 141},  {13, 147}, {19, 150}, {4, 155},  {14, 160}, {18, 165},
      {10, 175}, {10, 175}, {10, 175}, {20, 175}, {16, 200}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(net.counters().totalMessages(), 24u);
  EXPECT_EQ(sim.firedEvents(), expected.size());  // One event per delivery.
}

TEST_F(NetFixture, CrashDuringSameInstantDeliveriesSuppressesTheRest) {
  Network net = makeNet();
  int delivered = 0;
  // Both messages arrive at the same instant; the first delivery takes the
  // destination down, so the second is checked again and suppressed.
  net.send(0, 1, MsgKind::kData, 0, 1, [&] {
    ++delivered;
    machine1_up = false;
  });
  net.send(0, 1, MsgKind::kData, 0, 1, [&] { ++delivered; });
  sim.runAll();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetFixture, ReentrantSendFromDeliveryCallbackTakesAFreshHop) {
  Network net = makeNet();
  std::vector<SimTime> log;
  net.send(0, 1, MsgKind::kData, 0, 1, [&] {
    log.push_back(sim.now());
    // Send on the same link from inside a delivery.
    net.send(0, 1, MsgKind::kData, 0, 1, [&] { log.push_back(sim.now()); });
  });
  net.send(0, 1, MsgKind::kData, 0, 1, [&] { log.push_back(sim.now()); });
  sim.runAll();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 100, 200}));
}

TEST_F(NetFixture, MsgKindNames) {
  EXPECT_STREQ(toString(MsgKind::kData), "data");
  EXPECT_STREQ(toString(MsgKind::kStateRead), "state-read");
  EXPECT_STREQ(toString(MsgKind::kHeartbeatPing), "hb-ping");
}

}  // namespace
}  // namespace streamha
