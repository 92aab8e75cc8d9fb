// The Hybrid HA method (the paper's contribution, Section IV).
//
// Normal operation is passive standby with sweeping checkpointing, plus:
//   * a pre-deployed, suspended secondary copy on the standby machine;
//   * early connections (`isActive=false`) from upstream into the secondary
//     and from the secondary into downstream;
//   * checkpoints refresh the secondary's PE memory directly (StateStore
//     attached replica) -- no disk I/O;
//   * detection acts on the FIRST heartbeat miss (false alarms are cheap
//     because rollback is cheap).
//
// On switchover the system becomes active standby: the secondary resumes
// (flag flip + small resume cost), its connections are activated and
// repositioned at the checkpoint watermarks, and it processes alongside the
// (stalled) primary. Upstream trimming stays anchored to the *primary's*
// checkpointed acks, so no data can be lost even if the secondary fails too.
//
// When the primary answers heartbeats again the coordinator rolls back:
// quiesce the secondary, read its (more advanced) state into the primary
// (Read State on Rollback -- skips the backlog), re-persist it, suspend the
// secondary and deactivate its connections. If the primary stays silent past
// `failStopAfter`, the secondary is promoted to primary and a fresh
// secondary is pre-deployed on the spare machine.
#pragma once

#include <set>

#include "ha/coordinator.hpp"

namespace streamha {

class HybridCoordinator : public HaCoordinator {
 public:
  using HaCoordinator::HaCoordinator;

  void setup() override;
  HaMode mode() const override { return HaMode::kHybrid; }

  bool switchedOver() const { return switched_; }

  /// Message overhead of switchover/rollback episodes: elements delivered to
  /// the unresponsive primary while switched over, plus state read back.
  std::uint64_t elementsToStalledPrimary() const {
    return elements_to_stalled_primary_;
  }
  std::uint64_t stateReadElements() const { return state_read_elements_; }

  // -- Placement / domain-loss telemetry (place/; planner-side counters are
  // aggregated separately by the scenario) ----------------------------------
  std::uint64_t domainLosses() const { return domain_losses_; }
  std::uint64_t reprovisions() const { return reprovisions_; }
  std::uint64_t reprovisionRetries() const { return reprovision_retries_; }
  std::uint64_t standbyRedeploys() const { return standby_redeploys_; }
  /// The machine currently hosting (or slated to host) the standby; tests
  /// use this to assert planner-routed replacement choices.
  MachineId standbyMachine() const { return params_.standbyMachine; }

  /// membership/ interplay: a roster member departed (graceful retirement or
  /// lease expiry). If it hosted this coordinator's standby, the standby is
  /// drained onto a planner-chosen machine via the redeploy path; primaries
  /// are out of scope (graceful leaves never target primary hosts, and a
  /// crashed primary's lease expiry is already covered by crash detection).
  void noteMemberLeft(MachineId machine, bool graceful);

 private:
  void predeploySecondary(MachineId machine);
  void installDetector(MachineId monitor, Machine& target);
  void onFailure(SimTime detectedAt);
  void beginSwitchover(SimTime detectedAt);
  /// Resume (or, without pre-deployment, deploy) the secondary on the
  /// standby machine, then complete the switchover for timeline `idx`.
  void resumeSecondary(std::size_t idx);
  void completeSwitchover(std::size_t timelineIdx);
  void onRecovery(SimTime recoveredAt);
  void promote();
  // -- Flap damping (gray-failure resilience; see HaParams::FlapDamping) ------
  /// Completed switchover<->rollback cycles against the current primary
  /// inside the damping window ending at `now`.
  int cyclesInWindow(SimTime now) const;
  /// Record one completed (or aborted) switchover<->rollback cycle.
  void noteCycleCompleted(SimTime at);
  /// True when the next recovery verdict should quarantine instead of
  /// rolling back into the flap.
  bool shouldQuarantine(SimTime now) const;
  /// Quarantine the degraded primary: promote the secondary permanently and
  /// begin the re-admission clock.
  void quarantineAndPromote(SimTime now);
  void scheduleReadmitProbe(SimDuration delay);
  void probeQuarantined();
  void readmitQuarantined();
  // -- Domain-loss recovery (place/; active only with a planner and
  // reprovisionOnDomainLoss) --------------------------------------------------
  bool reprovisionEnabled() const {
    return params_.planner != nullptr && params_.reprovisionOnDomainLoss;
  }
  /// Register a (permanent, idempotent) crash listener on a machine hosting
  /// one of this coordinator's copies or replacement targets.
  void watchMachine(MachineId machine);
  /// Crash listener body: schedules one coalesced assessLoss() per
  /// reprovisionConfirm window.
  void onWatchedMachineCrash();
  /// Classify what the crash burst actually took out and dispatch to the
  /// matching recovery path.
  void assessLoss();
  /// Primary and secondary are gone together: tear both down, snapshot the
  /// last confirmed checkpoint and re-provision on a planner-chosen machine.
  void beginDomainLossRecovery();
  /// Pick a re-provision target and pay the deployment; retries while the
  /// pool is exhausted and restarts if the target dies mid-flight.
  void deployReplacement();
  /// The replacement is deployed: instantiate, wire, restore, activate.
  void activateReplacement(MachineId target);
  /// Secondary/standby lost while the primary survives: tear down the dead
  /// copy and stand a fresh standby up on a planner-chosen machine.
  void redeployStandby();
  /// Shared tail of both recovery paths: fresh store + suspended secondary +
  /// checkpoint manager + detector on a planner-chosen machine (or a local
  /// store when the pool is exhausted). Calls onStandbyRebuilt when done.
  void rebuildStandby();
  /// Seed a freshly created rebuild store with `rebuild_carry_` so it never
  /// holds less than the checkpoint whose acks already trimmed upstream.
  void seedRebuiltStore();
  void onStandbyRebuilt(MachineId standby, bool degraded);

  bool switched_ = false;
  bool promoting_ = false;
  bool resume_in_flight_ = false;
  bool holdoff_pending_ = false;  ///< A hysteresis re-check is scheduled.
  EventHandle failstop_timer_;
  SubjobQuiescer quiescer_;
  std::size_t current_timeline_ = 0;
  SimTime switchover_started_ = kTimeNever;
  ElementSeq switchover_baseline_ = 0;  ///< Primary's position at detection.
  std::uint64_t cursor_sum_at_switchover_ = 0;
  std::uint64_t elements_to_stalled_primary_ = 0;
  std::uint64_t state_read_elements_ = 0;
  /// Completion times of recent switchover<->rollback cycles against the
  /// current primary machine (pruned to the damping window).
  std::vector<SimTime> cycle_times_;
  MachineId cycle_machine_ = kNoMachine;  ///< The machine cycle_times_ is about.
  int probe_streak_ = 0;
  std::uint64_t probe_epoch_ = 0;  ///< Invalidates stale probe replies.
  // -- Domain-loss recovery state ---------------------------------------------
  std::set<MachineId> watched_machines_;  ///< Crash listeners registered.
  bool assess_pending_ = false;      ///< A coalesced assessLoss() is scheduled.
  bool reprovisioning_ = false;      ///< Domain-loss recovery in flight.
  enum class RebuildReason : std::uint8_t { kNone, kAfterReprovision, kStandbyLoss };
  RebuildReason rebuild_reason_ = RebuildReason::kNone;
  MachineId rebuild_target_ = kNoMachine;      ///< Standby rebuild in flight.
  MachineId reprovision_target_ = kNoMachine;  ///< Replacement-primary target.
  std::uint64_t place_epoch_ = 0;  ///< Invalidates stale placement callbacks.
  SubjobState reprovision_state_;  ///< Checkpoint snapshot being restored.
  /// Last confirmed checkpoint carried across a standby rebuild's store swap:
  /// upstream queues were already trimmed against its acks, so the new store
  /// must never start emptier than it (the primary can die before the fresh
  /// checkpoint manager confirms anything).
  SubjobState rebuild_carry_;
  ElementSeq reprovision_baseline_ = 0;
  std::size_t reprovision_timeline_ = 0;
  std::uint64_t domain_losses_ = 0;
  std::uint64_t reprovisions_ = 0;
  std::uint64_t reprovision_retries_ = 0;
  std::uint64_t standby_redeploys_ = 0;
};

}  // namespace streamha
