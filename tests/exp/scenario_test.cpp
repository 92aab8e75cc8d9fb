#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include "exp/detection_study.hpp"
#include "exp/measurement_study.hpp"
#include "exp/sweep.hpp"

namespace streamha {
namespace {

TEST(Scenario, MachineLayoutDedicatedStandbys) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 3};
  Scenario s(p);
  s.build();
  // 4 primaries + sink + 2 standbys.
  EXPECT_EQ(s.machineCount(), 7u);
  EXPECT_EQ(s.sinkMachine(), 4);
  EXPECT_EQ(s.standbyMachineOf(1), 5);
  EXPECT_EQ(s.standbyMachineOf(3), 6);
  EXPECT_EQ(s.standbyMachineOf(0), kNoMachine);
}

TEST(Scenario, MachineLayoutSharedStandby) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2, 3};
  p.sharedSecondary = true;
  Scenario s(p);
  s.build();
  EXPECT_EQ(s.machineCount(), 6u);
  EXPECT_EQ(s.standbyMachineOf(1), 5);
  EXPECT_EQ(s.standbyMachineOf(2), 5);
  EXPECT_EQ(s.standbyMachineOf(3), 5);
  EXPECT_EQ(s.coordinators().size(), 3u);
}

TEST(Scenario, SparesProvisionedWhenRequested) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.provisionSpares = true;
  Scenario s(p);
  s.build();
  EXPECT_EQ(s.machineCount(), 7u);  // 4 + sink + standby + spare.
}

TEST(Scenario, NoneModeHasNoExtraMachines) {
  ScenarioParams p;
  p.mode = HaMode::kNone;
  Scenario s(p);
  s.build();
  EXPECT_EQ(s.machineCount(), 5u);
  EXPECT_TRUE(s.coordinators().empty());
}

TEST(Scenario, RunAllProducesSaneBaselineNumbers) {
  ScenarioParams p;
  p.mode = HaMode::kNone;
  p.duration = 5 * kSecond;
  Scenario s(p);
  const auto r = s.runAll();
  EXPECT_GT(r.sinkReceived, 4000u);
  EXPECT_GT(r.avgDelayMs, 0.5);
  EXPECT_LT(r.avgDelayMs, 20.0);
  EXPECT_EQ(r.gapsObserved, 0u);
  EXPECT_EQ(r.switchovers, 0u);
  EXPECT_NEAR(r.measuredSeconds, 5.0, 0.1);
  EXPECT_NEAR(r.avgCpuLoad, 0.6, 0.1);
}

TEST(Scenario, FailureWindowsAndAttribution) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.failureFraction = 0.2;
  p.failureDuration = kSecond;
  p.duration = 20 * kSecond;
  p.seed = 5;
  Scenario s(p);
  const auto r = s.runAll();
  EXPECT_FALSE(s.allFailureWindows().empty());
  EXPECT_GT(r.switchovers, 0u);
  // Every recovery got a ground-truth failure start at or before detection.
  for (auto* c : s.coordinators()) {
    for (const auto& t : c->recoveries()) {
      ASSERT_NE(t.failureStart, kTimeNever);
      EXPECT_LE(t.failureStart, t.detectedAt);
    }
  }
}

TEST(Scenario, DelaySplitShowsFailureInflationForNone) {
  ScenarioParams p;
  p.mode = HaMode::kNone;
  p.failureFraction = 0.15;
  p.failureDuration = kSecond;
  p.duration = 30 * kSecond;
  p.seed = 9;
  Scenario s(p);
  const auto r = s.runAll();
  EXPECT_GT(r.delaySplit.duringFailure.mean(),
            2.0 * r.delaySplit.outsideFailure.mean());
}

TEST(Scenario, LoadSheddingBoundsDelayAtTheCostOfLoss) {
  ScenarioParams base;
  base.mode = HaMode::kNone;
  base.failureFraction = 0.3;
  base.failureDuration = kSecond;
  base.duration = 25 * kSecond;
  base.seed = 12;

  ScenarioParams shed = base;
  shed.flow.enabled = true;
  shed.flow.shedThreshold = 100;

  Scenario a(base);
  const auto ra = a.runAll();
  Scenario b(shed);
  const auto rb = b.runAll();

  EXPECT_EQ(ra.elementsShed, 0u);
  EXPECT_GT(rb.elementsShed, 0u);
  EXPECT_LT(rb.avgDelayMs, ra.avgDelayMs * 0.6);
  // Shedding loses data: the sink sees fewer elements.
  EXPECT_LT(rb.sinkReceived, ra.sinkReceived);
}

TEST(Scenario, SuspicionCrossingsDoNotDependOnTracing) {
  // Accrual detection on a gray primary: load spikes, CPU dilation and
  // heartbeat jitter make the suspicion level cross its thresholds
  // repeatedly. Recording a trace never changes behaviour, so the traced
  // and untraced results -- the crossing count included -- must be
  // identical.
  auto run = [](bool traced) {
    ScenarioParams p;
    p.mode = HaMode::kHybrid;
    p.provisionSpares = true;
    p.duration = 15 * kSecond;
    p.seed = 4;
    p.failureFraction = 0.3;
    p.accrual.enabled = true;
    p.trace.enabled = traced;
    SlowdownSpec dilation;
    dilation.kind = SlowdownKind::kCpuDilation;
    dilation.machine = 2;
    dilation.severity = 0.5;
    dilation.beginAt = 4 * kSecond;
    dilation.endAt = 12 * kSecond;
    SlowdownSpec jitter = dilation;
    jitter.kind = SlowdownKind::kHeartbeatJitter;
    jitter.delayProb = 0.5;
    jitter.maxExtraDelay = 400 * kMillisecond;
    p.faults.slowdowns = {dilation, jitter};
    Scenario s(p);
    return s.runAll();
  };
  const ScenarioResult traced = run(true);
  const ScenarioResult untraced = run(false);
  EXPECT_GT(untraced.gray.suspicionCrossings, 0u);
  EXPECT_EQ(fingerprintResult(traced), fingerprintResult(untraced));
}

TEST(MeasurementStudy, EnsembleMatchesPaperCharacteristics) {
  MeasurementStudyParams p;
  p.machines = 83;
  p.hours = 6.0;  // Shorter horizon for test speed; statistics stabilize.
  const auto stats = simulateMachineEnsemble(p);
  ASSERT_EQ(stats.size(), 83u);
  int with_spikes = 0;
  int frequent = 0;  // More often than once every 60 s.
  int short_duration = 0;  // Average below 15 s.
  for (const auto& s : stats) {
    if (s.spikeCount > 0) ++with_spikes;
    if (s.avgInterFailureSec > 0 && s.avgInterFailureSec < 60.0) ++frequent;
    if (s.spikeCount > 0 && s.avgDurationSec < 15.0) ++short_duration;
  }
  // "All 83 machines exhibited transient unavailability."
  EXPECT_EQ(with_spikes, 83);
  // "over 75% of machines have transient failures ... more frequently than
  // once every 60 s" -- allow slack around the population draw.
  EXPECT_GT(frequent, 83 * 6 / 10);
  // "About 80% of them last for less than 15 seconds."
  EXPECT_GT(short_duration, 83 * 7 / 10);
}

TEST(MeasurementStudy, ParallelAppShowsLoadedMachineInflation) {
  ParallelAppParams p;
  const auto rows = measureParallelApp(p);
  ASSERT_EQ(rows.size(), 21u);
  double unloaded = 0, loaded = 0;
  int nu = 0, nl = 0;
  for (const auto& row : rows) {
    if (row.loaded) {
      loaded += row.avgSeconds;
      ++nl;
    } else {
      unloaded += row.avgSeconds;
      ++nu;
    }
  }
  unloaded /= nu;
  loaded /= nl;
  EXPECT_NEAR(unloaded, 0.58, 0.02);
  EXPECT_NEAR(loaded, 0.9, 0.05);  // The paper's ~50% increase.
}

TEST(DetectionStudy, HeartbeatBeatsBenchmarkOnFalseAlarms) {
  DetectionStudyParams p;
  p.spikeLoad = 0.9;
  p.spikeCount = 40;  // Keep the test fast.
  const auto r = runDetectionStudy(p);
  EXPECT_GT(r.heartbeat.detectionRatio, 0.9);
  EXPECT_LT(r.heartbeat.falseAlarmRatio, 0.05);
  EXPECT_GT(r.benchmark.detectionRatio, 0.9);
  EXPECT_GT(r.benchmark.falseAlarmRatio, 0.15);
}

TEST(DetectionStudy, BenchmarkOversensitiveAtLowLoad) {
  DetectionStudyParams p;
  p.spikeLoad = 0.6;
  p.spikeCount = 40;
  const auto r = runDetectionStudy(p);
  EXPECT_LT(r.heartbeat.detectionRatio, 0.2);
  EXPECT_GT(r.benchmark.detectionRatio, 0.8);
}

}  // namespace
}  // namespace streamha
