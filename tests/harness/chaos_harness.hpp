// Reusable chaos-test harness.
//
// The pieces the integration tests compose:
//
//  * ChaosPlan / makeChaosPlan -- derive a deterministic FaultSchedule
//    (bounded random loss, one healed partition, one machine crash) from a
//    ScenarioParams + seed. The crash target cycles over the protected
//    primaries and one standby so the sweep exercises every failover role.
//  * runChaosScenario -- build/run/drain one scenario and evaluate the
//    exactly-once/in-order oracle against it.
//  * checkExactlyOnceInOrder -- the oracle alone, for custom drivers.
//  * traceJsonl -- the run's recorded trace as a JSONL string, for
//    bit-identical reproducibility checks (same seed + schedule => same
//    string).
//  * shrinkFailingSchedule -- greedy delta-debugging over a schedule's
//    components; reports the smallest schedule that still fails so a failing
//    seed produces an actionable repro (see docs/TESTING.md).
//
// Everything here is deterministic: no wall clock, no global state; the only
// randomness is an Rng seeded from the caller's seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"

namespace streamha {
namespace harness {

// -- Oracle -------------------------------------------------------------------

/// Result of the exactly-once/in-order check over a drained scenario.
struct OracleReport {
  bool ok = true;
  /// Human-readable description of each violated invariant.
  std::vector<std::string> violations;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;

  std::string summary() const;
};

/// The sink must have seen every generated element exactly once, in order,
/// and no input queue anywhere may have accepted a sequence jump.
/// Call after drain(); an undrained run trivially fails.
OracleReport checkExactlyOnceInOrder(Scenario& s, const ScenarioResult& r);

/// Contract parameters for the shedding-enabled oracle.
struct BoundedLossParams {
  /// Largest tolerated end-to-end loss fraction (lost / generated).
  double maxLossFraction = 0.05;
  /// Require every lost element to be accounted for by the shed counters
  /// (loss <= elementsShed). Disable for runs that lose data some other
  /// sanctioned way (e.g. a never-healing partition isolating the sink).
  bool requireAccountedLoss = true;
};

/// The shedding-enabled relaxation of the oracle: what arrives at the sink is
/// still a duplicate-free in-order stream with no accepted sequence jumps
/// anywhere, but elements may be missing -- bounded by `maxLossFraction` and
/// (by default) fully accounted for by the shed counters. Exactly-once runs
/// pass it trivially (zero loss satisfies every bound).
OracleReport checkPrefixInOrderBoundedLoss(Scenario& s,
                                           const ScenarioResult& r,
                                           const BoundedLossParams& loss);

// -- Schedule generation ------------------------------------------------------

/// Bounds for the random schedule generator.
struct ChaosProfile {
  double maxLossProb = 0.05;        ///< Per-message drop cap (spec: <= 5%).
  double maxDuplicateProb = 0.01;   ///< Injected duplicate deliveries.
  double maxDelayProb = 0.05;       ///< Delay-jitter probability.
  SimDuration maxExtraDelay = 5 * kMillisecond;
  /// Message kinds the loss rule perturbs. Defaults to *every* kind --
  /// control, checkpoint and state-read included -- now that the control
  /// plane rides the ARQ layer (net/reliable.hpp). Narrow it (e.g. to
  /// maskOf(MsgKind::kControl) | ...) for targeted control-loss sweeps.
  std::uint32_t lossyKinds = kAllKinds;
  /// Healed bidirectional partitions among the data-plane machines; 0
  /// disables. Values > 1 may overlap in time (correlated outages).
  int partitionCount = 1;
  bool withCrash = true;            ///< One machine crash.
  /// When true the crashed machine restarts 1s..4s later (rollback paths);
  /// when false the crash is permanent (fail-stop promotion paths).
  bool restartCrashed = false;
  /// Correlated burst: crash a protected primary *and* its standby in
  /// staggered sequence, both restarting `burstDownFor` after their crash
  /// (the rack/switch failure mode Su & Zhou's study stresses).
  bool withBurst = false;
  SimDuration burstStagger = 300 * kMillisecond;
  SimDuration burstDownFor = 2 * kSecond;
  /// Faults are confined to [faultsFrom, faultsUntil] so the drain phase can
  /// converge on loss-free links.
  SimDuration faultsFrom = 5 * kSecond;
  SimDuration faultsUntil = 25 * kSecond;
  SimDuration minPartition = 500 * kMillisecond;
  SimDuration maxPartition = 2 * kSecond;
  /// Slowdown mix (gray failures, fault/schedule.hpp SlowdownSpec): when
  /// enabled the plan additionally degrades one protected primary with CPU
  /// dilation plus heartbeat delay jitter for a window inside
  /// [faultsFrom, faultsUntil]. Off by default, so existing profiles consume
  /// the same RNG stream and generate byte-identical plans.
  bool withSlowdown = false;
  double minDilation = 0.2;   ///< CPU dilation severity range.
  double maxDilation = 0.6;
  double minJitterProb = 0.2;  ///< Heartbeat delay probability range.
  double maxJitterProb = 0.6;
  /// Max extra heartbeat delay range (should straddle the heartbeat
  /// interval: flapping needs replies that are late, not lost).
  SimDuration minJitterDelay = 100 * kMillisecond;
  SimDuration maxJitterDelay = 400 * kMillisecond;
  SimDuration minSlowdown = 3 * kSecond;  ///< Degradation window length range.
  SimDuration maxSlowdown = 10 * kSecond;
  /// Domain kill (place/): crash EVERY machine of one sampled failure domain
  /// -- the rack of a protected primary or of its assigned standby -- in one
  /// burst, primary and standby included when they share the rack. Requires
  /// ScenarioParams::placement with an enabled topology; the target rack is
  /// picked by `seed % candidates` (no RNG draw) and racks hosting the
  /// source, the sink or an unprotected primary are never killed. Off by
  /// default: RNG draws are gated behind the flag so existing profiles
  /// generate byte-identical plans.
  bool withDomainKill = false;
  /// Delay between consecutive kills inside the domain (0 = simultaneous,
  /// the correlated rack/power loss the placement subsystem defends against).
  SimDuration domainKillStagger = 0;
  /// How long killed machines stay down (kTimeNever = permanent loss; the
  /// checkpoint re-provisioning path is the only way back).
  SimDuration domainKillDownFor = kTimeNever;
  /// Churn storm (membership/): mass roster transitions racing the faults
  /// above. Joins start latent machines' beacons; retires gracefully drain
  /// pool machines; silences stop a member's beacon so its lease expires.
  /// Requires ScenarioParams::membership.enabled (joins need latent
  /// machines, leaves need pool machines). Targets are never primary hosts,
  /// the source or the sink -- pool machines carry at most a standby copy,
  /// whose departure the redeploy path absorbs. Off by default: RNG draws
  /// are gated behind the flag so existing profiles generate byte-identical
  /// plans.
  bool withChurn = false;
  int churnJoins = 2;     ///< Latent machines to join mid-run (layout-capped).
  int churnRetires = 1;   ///< Graceful leaves among pool machines.
  int churnSilences = 1;  ///< Silenced beacons (lease-expiry evictions).
};

/// One generated chaos schedule plus what it targets.
struct ChaosPlan {
  FaultSchedule schedule;
  MachineId crashTarget = kNoMachine;
  /// True when the crash hits a protected subjob's primary (a permanent such
  /// crash must eventually produce a fail-stop promotion).
  bool crashedProtectedPrimary = false;
  /// The machine degraded by the slowdown mix (kNoMachine when disabled).
  MachineId slowdownTarget = kNoMachine;
  /// The degradation window (valid when slowdownTarget is set).
  SimTime slowdownFrom = 0;
  SimTime slowdownUntil = 0;
  /// The failure domain killed by the domain-kill burst (-1 when disabled).
  int killedRack = -1;
  /// Every machine the domain kill takes down (rack members).
  std::vector<MachineId> domainKillMachines;
  /// Machines the churn storm joins / retires / silences (empty when off).
  std::vector<MachineId> churnJoined;
  std::vector<MachineId> churnRetired;
  std::vector<MachineId> churnSilenced;
};

/// Derive the plan for (params, seed). Deterministic: same inputs, same plan.
/// Machine 0 is never crashed (it hosts the source, like the paper's setup).
ChaosPlan makeChaosPlan(const ScenarioParams& params,
                        const ChaosProfile& profile, std::uint64_t seed);

/// One seed of the substrate chaos profile: a 10 s Hybrid run with subjobs
/// 1 and 2 protected and spares provisioned, under loss, duplicates, jitter,
/// a healed partition and a restarting crash inside [3 s, 8 s). Shared by
/// bench/micro_substrate, the behaviour corpus and the chaos tier.
ScenarioParams substrateProfileParams(std::uint64_t seed);

/// A mid-weight traced chaos run: Hybrid, loss + duplicates + jitter on every
/// kind, one healed partition and one restarting crash, compressed into 12 s
/// so serial re-runs stay cheap even under TSan. Run it with
/// tracedChaosOpts(). Shared by SweepDeterminism and the behaviour corpus.
ScenarioParams tracedChaosParams(std::uint64_t seed);

// -- Drivers ------------------------------------------------------------------

/// Everything a chaos driver needs to assert on.
struct ChaosOutcome {
  ScenarioResult result;
  OracleReport oracle;
  FaultInjector::Stats faults;
  /// Filled by the quiescence-aware driver (default-false otherwise).
  QuiescenceReport quiescence;
  /// Lossless digest of `result` (exp/sweep.hpp fingerprintResult); two runs
  /// behaved identically iff these strings match. Always filled by the
  /// ChaosRunOpts driver.
  std::string resultFingerprint;
  /// The run's full trace as JSONL; only captured when
  /// ChaosRunOpts::captureTrace is set (it can be large).
  std::string trace;
};

/// Which invariant family a chaos run is checked against.
enum class OracleMode {
  kExactlyOnce,   ///< checkExactlyOnceInOrder (shedding forbidden).
  kBoundedLoss,   ///< checkPrefixInOrderBoundedLoss (accounted shedding ok).
};

/// Options for the quiescence-aware driver below.
struct ChaosRunOpts {
  OracleMode oracle = OracleMode::kExactlyOnce;
  BoundedLossParams loss;  ///< Used by kBoundedLoss only.
  /// Drain by quiescence predicate instead of fixed grace: run until the
  /// pipeline is observably done (or residually stable) rather than hoping a
  /// fixed headroom was enough. See Scenario::drainQuiescent.
  bool quiescentDrain = true;
  SimDuration maxDrain = 30 * kSecond;
  SimDuration drainTick = 500 * kMillisecond;
  int stableTicks = 8;
  /// Also capture the run's trace as JSONL in ChaosOutcome::trace (for
  /// bit-identical serial-vs-parallel comparisons).
  bool captureTrace = false;
};

/// Fixed 12 s drain with the trace captured (ChaosOutcome::trace); the
/// options tracedChaosParams runs are checked with.
ChaosRunOpts tracedChaosOpts();

/// build + start (+failures) + run + drain + collect + oracle, one call.
/// `params.faults` must already hold the schedule (see makeChaosPlan).
ChaosOutcome runChaosScenario(ScenarioParams params,
                              SimDuration drainGrace = 12 * kSecond);

/// Same pipeline with a configurable oracle and a quiescence-aware drain.
ChaosOutcome runChaosScenario(ScenarioParams params,
                              const ChaosRunOpts& opts);

// -- Trace reproducibility ----------------------------------------------------

/// The scenario's recorded trace rendered as JSONL (empty string when tracing
/// is disabled). Two runs with identical params produce identical strings.
std::string traceJsonl(Scenario& s);

// -- Shrinking ----------------------------------------------------------------

/// Greedy delta-debugging over the schedule's components (each link rule,
/// partition, crash, burst, slowdown and churn action is one removable
/// atom). Repeatedly re-runs
/// `stillFails` on candidate sub-schedules until no single component can be
/// removed, or `maxRuns` re-executions have been spent. Returns the smallest
/// still-failing schedule found; print it with FaultSchedule::describe().
FaultSchedule shrinkFailingSchedule(
    FaultSchedule schedule,
    const std::function<bool(const FaultSchedule&)>& stillFails,
    int maxRuns = 64);

}  // namespace harness
}  // namespace streamha
