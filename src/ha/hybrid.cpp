#include "ha/hybrid.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/logging.hpp"
#include "place/planner.hpp"

namespace streamha {

void HybridCoordinator::setup() {
  primary_ = rt_.instanceOf(subjob_, Replica::kPrimary);
  assert(primary_ != nullptr && "deploy primaries before HA setup");
  assert(params_.standbyMachine != kNoMachine);

  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  store_ = std::make_unique<StateStore>(
      sim(), cluster().machine(params_.standbyMachine), params_.store);
  store_->setTrace(trace());
  if (params_.predeploySecondary) {
    predeploySecondary(params_.standbyMachine);
  }
  cm_ = makeCheckpointManager(*primary_, *store_);
  cm_->start();
  installDetector(params_.standbyMachine, primary_->machine());
  if (reprovisionEnabled()) {
    watchMachine(primary_->machine().id());
    watchMachine(params_.standbyMachine);
  }
}

void HybridCoordinator::predeploySecondary(MachineId machine) {
  secondary_ = &rt_.instantiate(subjob_, machine, Replica::kSecondary);
  secondary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  // "To avoid consuming CPU cycles, we suspend this job immediately after
  // its deployment."
  secondary_->suspendAll();
  if (params_.earlyConnections) {
    // Early connection: channels exist with isActive=false; switchover only
    // flips the flag.
    rt_.wireInstance(*secondary_, Runtime::WireOpts{false, false},
                     Runtime::WireOpts{false, false});
  }
  // Checkpoints refresh the suspended copy's PE memory directly.
  store_->attachReplica(subjob_, secondary_);
}

void HybridCoordinator::installDetector(MachineId monitor, Machine& target) {
  retire(std::move(detector_));
  FailureDetector::Callbacks callbacks;
  callbacks.onFailure = [this](SimTime t) { onFailure(t); };
  callbacks.onRecovery = [this](SimTime t) { onRecovery(t); };
  detector_ = makeDetector(cluster().machine(monitor), target,
                           std::move(callbacks));
  detector_->start();
}

void HybridCoordinator::onFailure(SimTime detectedAt) {
  // The planner must stop offering a machine some detector currently declares
  // failed, even when this coordinator takes no action of its own.
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(primary_->machine().id(), true);
  }
  if (reprovisioning_ || rebuild_reason_ != RebuildReason::kNone) return;
  if (switched_ || promoting_ || resume_in_flight_ || holdoff_pending_) return;
  const FlapDamping& damping = params_.damping;
  if (damping.enabled && damping.switchoverHoldoff > 0 &&
      cyclesInWindow(detectedAt) > 0) {
    // Hysteresis: this primary already flapped inside the window. Instead of
    // honoring the first-miss policy immediately, wait a beat and only switch
    // over if the detector still says failed.
    holdoff_pending_ = true;
    sim().schedule(damping.switchoverHoldoff, [this] {
      holdoff_pending_ = false;
      if (switched_ || promoting_ || resume_in_flight_) return;
      if (detector_ != nullptr && detector_->failed()) {
        beginSwitchover(sim().now());
      }
    });
    return;
  }
  beginSwitchover(detectedAt);
}

void HybridCoordinator::beginSwitchover(SimTime detectedAt) {
  switched_ = true;
  ++switchovers_;
  RecoveryTimeline timeline;
  timeline.incidentId = beginTraceIncident();
  timeline.detectedAt = detectedAt;
  recoveries_.push_back(timeline);
  current_timeline_ = recoveries_.size() - 1;
  recordIncidentEvent(TraceEventType::kSwitchoverBegin, timeline.incidentId,
                      primary_->machine().id(), params_.standbyMachine);
  switchover_started_ = detectedAt;
  switchover_baseline_ = primary_->lastPe().output(0).nextSeq();
  cursor_sum_at_switchover_ = 0;
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    cursor_sum_at_switchover_ += wire->oq->connectionCursor(wire->connId);
  }
  LOG_INFO(sim().now(), "hybrid")
      << "switchover for subjob " << subjob_ << " (miss on machine "
      << primary_->machine().id() << ")";

  // Promote to a permanent failure if the primary stays silent.
  failstop_timer_ = sim().schedule(params_.failStopAfter, [this] {
    if (switched_ && !promoting_) promote();
  });

  resumeSecondary(current_timeline_);
}

void HybridCoordinator::resumeSecondary(std::size_t idx) {
  resume_in_flight_ = true;
  if (secondary_ != nullptr) {
    // Resume the pre-deployed suspended copy: a flag flip plus a small
    // amount of control work on the standby machine.
    secondary_->machine().submitData(rt_.costs().resumeWorkUs, [this, idx] {
      if (!resume_in_flight_) return;  // A resubmitted resume ran first.
      resume_in_flight_ = false;
      if (!switched_ || promoting_) return;  // Rolled back before resume.
      secondary_->unsuspendAll();
      // While switched over the system runs in active-standby mode: the
      // secondary acks as it processes (keeping its own queues trimmed).
      // Safety is unaffected -- its upstream connections never gate trim.
      secondary_->setAckPolicy(AckPolicy::kOnProcess);
      secondary_->startAckTimer(rt_.costs().ackFlushInterval);
      recoveries_[idx].redeployDoneAt = sim().now();
      recordIncidentEvent(TraceEventType::kRedeployDone,
                          recoveries_[idx].incidentId,
                          secondary_->machine().id(), kNoMachine);
      if (params_.earlyConnections) {
        completeSwitchover(idx);
      } else {
        rt_.wireInstanceWithCost(
            *secondary_, Runtime::WireOpts{false, false},
            Runtime::WireOpts{false, false}, [this, idx] {
              if (switched_ && !promoting_) completeSwitchover(idx);
            });
      }
    });
  } else {
    // Ablation: no pre-deployment -- pay the full deployment cost now.
    Machine& standby = cluster().machine(params_.standbyMachine);
    standby.submitData(rt_.costs().deployWorkUs, [this, idx] {
      if (!resume_in_flight_) return;  // A resubmitted deploy ran first.
      resume_in_flight_ = false;
      if (!switched_ || promoting_) return;
      secondary_ = &rt_.instantiate(subjob_, params_.standbyMachine,
                                    Replica::kSecondary);
      secondary_->setAckPolicy(AckPolicy::kOnProcess);
      secondary_->startAckTimer(rt_.costs().ackFlushInterval);
      store_->attachReplica(subjob_, secondary_);
      recoveries_[idx].redeployDoneAt = sim().now();
      recordIncidentEvent(TraceEventType::kRedeployDone,
                          recoveries_[idx].incidentId,
                          secondary_->machine().id(), kNoMachine);
      rt_.wireInstanceWithCost(
          *secondary_, Runtime::WireOpts{false, false},
          Runtime::WireOpts{false, false}, [this, idx] {
            if (switched_ && !promoting_) completeSwitchover(idx);
          });
    });
  }
}

void HybridCoordinator::completeSwitchover(std::size_t timelineIdx) {
  const SubjobState state = store_->latest(subjob_);
  secondary_->applyState(state);
  watchFirstOutput(*secondary_, timelineIdx, switchover_baseline_);
  recoveries_[timelineIdx].connectionsReadyAt = sim().now();
  recordIncidentEvent(TraceEventType::kConnectionsReady,
                      recoveries_[timelineIdx].incidentId,
                      secondary_->machine().id(), kNoMachine);
  // The activated secondary's connections gate upstream trimming alongside
  // the primary's checkpointed acks (trim advances to the *minimum* over
  // gating connections, so adding the secondary only retains more). This
  // matters when the primary is degraded rather than dead: a gray primary
  // keeps processing and checkpointing while switched over, and its acks
  // alone would let upstream trim past the snapshot the secondary adopted --
  // a later promotion (fail-stop or flap quarantine) would then discard the
  // only copy that covers the trimmed range. finishRollback() and
  // deactivateInstanceWires() drop the gate when the secondary re-suspends.
  activateRestoredInstance(*secondary_, state, /*gateInbound=*/true);
}

void HybridCoordinator::onRecovery(SimTime recoveredAt) {
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(primary_->machine().id(), false);
  }
  if (reprovisioning_ || rebuild_reason_ != RebuildReason::kNone) return;
  if (!switched_ || promoting_) return;
  // Detector lag: a "recovered" verdict can rest on heartbeat replies that
  // left the primary just before it died. Never start a rollback to a dead
  // primary -- stand pat on the secondary and leave the fail-stop timer
  // armed so the crash eventually promotes it.
  if (!primary_->alive()) return;
  // The primary came back before the secondary even finished resuming (or,
  // without pre-deployment, before it was deployed): nothing to roll back --
  // abort the speculative switchover. The pending resume/deploy callback
  // sees switched_ == false and stands down.
  if (resume_in_flight_ || secondary_ == nullptr) {
    failstop_timer_.cancel();
    if (current_timeline_ < recoveries_.size()) {
      recoveries_[current_timeline_].rollbackStartAt = recoveredAt;
      recoveries_[current_timeline_].rollbackDoneAt = recoveredAt;
      // Aborted switchover: zero-length rollback span (aux = 1 marks it).
      recordIncidentEvent(TraceEventType::kRollbackBegin,
                          recoveries_[current_timeline_].incidentId,
                          primary_->machine().id(), kNoMachine, 0, 1);
      recordIncidentEvent(TraceEventType::kRollbackEnd,
                          recoveries_[current_timeline_].incidentId,
                          primary_->machine().id(), kNoMachine, 0, 1);
      // Explicit classification for the timeline analyzer: value 1 = the
      // switchover was abandoned before the secondary even resumed.
      recordIncidentEvent(TraceEventType::kIncidentAborted,
                          recoveries_[current_timeline_].incidentId,
                          primary_->machine().id(), kNoMachine, 1);
    }
    // An aborted switchover is still one oscillation against this primary.
    noteCycleCompleted(recoveredAt);
    switched_ = false;
    return;
  }
  // Flap damping: if this primary has already completed maxCycles
  // switchover<->rollback cycles inside the window, this recovery verdict is
  // just the next oscillation of a gray node. Quarantine it -- promote the
  // secondary permanently -- instead of rolling back into the flap.
  if (shouldQuarantine(recoveredAt) && secondary_->alive()) {
    quarantineAndPromote(recoveredAt);
    return;
  }
  ++rollbacks_;
  failstop_timer_.cancel();
  if (current_timeline_ < recoveries_.size()) {
    recoveries_[current_timeline_].rollbackStartAt = recoveredAt;
    recordIncidentEvent(TraceEventType::kRollbackBegin,
                        recoveries_[current_timeline_].incidentId,
                        primary_->machine().id(),
                        secondary_->machine().id());
  }
  LOG_INFO(sim().now(), "hybrid")
      << "primary responsive again; rolling back subjob " << subjob_;

  // Account the elements that were shipped to the stalled primary while we
  // were switched over (Fig 10's dominant overhead term).
  std::uint64_t cursor_sum_now = 0;
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    cursor_sum_now += wire->oq->connectionCursor(wire->connId);
  }
  if (cursor_sum_now > cursor_sum_at_switchover_) {
    elements_to_stalled_primary_ += cursor_sum_now - cursor_sum_at_switchover_;
  }

  quiescer_.quiesce(*secondary_, [this] {
    // The primary can die between the recovery verdict and quiesce
    // completion. Abort the rollback: resume the secondary where it was and
    // re-arm the fail-stop timer (cancelled above) so the crash promotes it.
    if (!primary_->alive()) {
      quiescer_.release();
      if (current_timeline_ < recoveries_.size()) {
        recoveries_[current_timeline_].rollbackDoneAt = sim().now();
        recordIncidentEvent(TraceEventType::kRollbackEnd,
                            recoveries_[current_timeline_].incidentId,
                            primary_->machine().id(),
                            secondary_->machine().id(), 0, 1);
        // Explicit classification for the timeline analyzer: value 2 = the
        // rollback was abandoned because the primary died mid-quiesce.
        recordIncidentEvent(TraceEventType::kIncidentAborted,
                            recoveries_[current_timeline_].incidentId,
                            primary_->machine().id(),
                            secondary_->machine().id(), 2);
      }
      failstop_timer_ = sim().schedule(params_.failStopAfter, [this] {
        if (switched_ && !promoting_) promote();
      });
      return;
    }
    SubjobState state = secondary_->captureState(true, false);
    const bool useState =
        params_.readStateOnRollback && stateAdvances(state, *primary_);
    auto finishRollback = [this] {
      secondary_->suspendAll();
      secondary_->stopAckTimer();
      secondary_->setAckPolicy(AckPolicy::kOnCheckpoint);
      quiescer_.release();
      deactivateInstanceWires(*secondary_);
      if (current_timeline_ < recoveries_.size()) {
        recoveries_[current_timeline_].rollbackDoneAt = sim().now();
        recordIncidentEvent(TraceEventType::kRollbackEnd,
                            recoveries_[current_timeline_].incidentId,
                            primary_->machine().id(),
                            secondary_->machine().id(), state_read_elements_);
      }
      noteCycleCompleted(sim().now());
      switched_ = false;
    };
    if (useState) {
      // Read State on Rollback: the primary adopts the secondary's more
      // advanced state instead of grinding through its backlog.
      const std::uint64_t elements =
          state.sizeElements(params_.checkpoint.bytesPerElement);
      state_read_elements_ += elements;
      const MachineId standbyM = secondary_->machine().id();
      const MachineId primaryM = primary_->machine().id();
      // Delta-aware transfer: when delta shipping is on, the recovering
      // primary already holds its own last-checkpointed state, and the
      // store's delta log knows which runs it is missing -- only those bytes
      // cross the wire. Full-copy mode transfers the whole snapshot.
      std::uint64_t transferBytes = state.sizeBytes();
      if (store_->deltaEnabled()) {
        std::map<LogicalPeId, std::uint64_t> have;
        const SubjobState held = primary_->peekState(false, false);
        for (const auto& [peId, peState] : held.pes) {
          have[peId] = peState.version;
        }
        transferBytes = store_->restoreBytes(subjob_, have, state);
      }
      // The transfer rides the reliable path, so a lost copy is retried
      // instead of silently falling back; the timeout below only remains for
      // the case where the primary dies while the state is in flight (the
      // detector then re-reports the failure and a fresh switchover begins).
      auto finishOnce = std::make_shared<std::function<void()>>(
          [finishRollback, done = false]() mutable {
            if (done) return;
            done = true;
            finishRollback();
          });
      net().sendReliable(standbyM, primaryM, MsgKind::kStateRead,
                         transferBytes, elements,
                         [this, state, finishOnce] {
                   // Re-check at application time: the recovered primary has
                   // been processing during the transfer and may have moved
                   // past the captured state -- applying it then would roll
                   // the primary backwards and skew its output numbering.
                   if (stateAdvances(state, *primary_)) {
                     primary_->applyState(state);
                     for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
                       if (wire->consumerPe == nullptr) continue;
                       const ElementSeq wm = stateWatermark(
                           state, *wire->consumerPe, wire->stream);
                       rt_.retransmitWire(*wire, wm + 1);
                     }
                     // Re-persist the adopted state so upstream acks (and
                     // trimming) resume from it. In delta mode the adopted
                     // versions and the manager's confirmed bases can
                     // disagree, so restart from full-coverage ships.
                     // Atomic: fence pre-adoption pipelines still in flight
                     // (their confirms must not trim upstream past what the
                     // rewound copy has to reprocess) and release the
                     // re-persist's acks all-or-nothing.
                     cm_->resetDeltaBase();
                     cm_->checkpointAllNow(nullptr, /*atomic=*/true);
                   }
                   (*finishOnce)();
                 });
      sim().schedule(params_.failStopAfter, [finishOnce] { (*finishOnce)(); });
    } else {
      finishRollback();
    }
  });
}

void HybridCoordinator::promote() {
  if (!switched_) return;
  if (resume_in_flight_) {
    // The secondary never resumed: a crash of the standby machine drops its
    // queued resume task, leaving the copy suspended behind inactive wires,
    // and promoting it would wedge the subjob. Resubmit the resume and give
    // the switchover a fresh fail-stop period (the detector may also clear
    // the primary meanwhile, which rolls back instead).
    resumeSecondary(current_timeline_);
    failstop_timer_ = sim().schedule(params_.failStopAfter, [this] {
      if (switched_ && !promoting_) promote();
    });
    return;
  }
  if (secondary_ == nullptr) return;
  // Never promote a dead copy; if the standby died too, the only option is
  // to keep waiting for the primary (or an operator) to come back.
  if (!secondary_->alive()) return;
  promoting_ = true;
  ++promotions_;
  recordIncidentEvent(TraceEventType::kPromotion,
                      current_timeline_ < recoveries_.size()
                          ? recoveries_[current_timeline_].incidentId
                          : 0,
                      secondary_->machine().id(), primary_->machine().id());
  LOG_INFO(sim().now(), "hybrid")
      << "fail-stop: promoting secondary of subjob " << subjob_
      << " on machine " << secondary_->machine().id();

  Subjob* old = primary_;
  isolateInstance(*old);
  old->terminateAll();
  rt_.removeWiresOf(*old);
  // The old primary is out of the picture; lift its suspicion mark so a
  // later restart can re-join the pool (quarantine and liveness checks keep
  // guarding it meanwhile).
  if (params_.planner != nullptr) {
    params_.planner->setSuspected(old->machine().id(), false);
  }

  primary_ = secondary_;
  secondary_ = nullptr;
  store_->detachReplica(subjob_);
  // The promoted copy checkpoints like a primary from here on.
  primary_->stopAckTimer();
  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);

  // The promoted copy's connections now carry primary semantics: its acks
  // gate upstream trimming.
  for (Runtime::Wire* wire : rt_.wiresInto(*primary_)) {
    wire->oq->setConnectionGating(wire->connId, true);
  }

  retire(std::move(cm_));
  MachineId spare = params_.spareMachine;
  if (params_.planner != nullptr) {
    // Route the replacement-standby choice through the planner: never a
    // quarantined, suspected or down machine, and spread away from the new
    // primary's failure domain.
    PlacementPlanner::Request request;
    request.avoidMachines.push_back(primary_->machine().id());
    if (quarantined_machine_ != kNoMachine) {
      request.avoidMachines.push_back(quarantined_machine_);
    }
    request.preferDisjointFrom.push_back(primary_->machine().id());
    spare = params_.planner->choose(request);
  } else if (spare != kNoMachine && !cluster().machineUp(spare)) {
    // A dead spare would swallow the deployment work -- the completion
    // callback is lost with the machine and the promotion wedges with
    // `promoting_` stuck. Degrade to a local store instead.
    spare = kNoMachine;
  }
  if (spare != kNoMachine) {
    if (reprovisionEnabled()) {
      // Crash coverage for the deployment window: if the spare dies before
      // the callback runs, assessLoss() re-chooses instead of wedging.
      rebuild_target_ = spare;
      watchMachine(spare);
    }
    // Stand up a fresh standby on the spare machine (full deployment cost),
    // then resume checkpointing against it.
    cluster().machine(spare).submitData(rt_.costs().deployWorkUs, [this,
                                                                   spare] {
      retire(std::move(store_));
      store_ = std::make_unique<StateStore>(sim(), cluster().machine(spare),
                                            params_.store);
      store_->setTrace(trace());
      params_.standbyMachine = spare;
      params_.spareMachine = kNoMachine;
      predeploySecondary(spare);
      cm_ = makeCheckpointManager(*primary_, *store_);
      cm_->start();
      installDetector(spare, primary_->machine());
      rebuild_target_ = kNoMachine;
      promoting_ = false;
      switched_ = false;
    });
  } else {
    // Degraded mode: no spare available; checkpoint locally so the job keeps
    // running, without standby protection.
    retire(std::move(store_));
    store_ = std::make_unique<StateStore>(sim(), primary_->machine(),
                                          params_.store);
    store_->setTrace(trace());
    cm_ = makeCheckpointManager(*primary_, *store_);
    cm_->start();
    retire(std::move(detector_));
    promoting_ = false;
    switched_ = false;
  }
}

int HybridCoordinator::cyclesInWindow(SimTime now) const {
  if (cycle_machine_ == kNoMachine ||
      cycle_machine_ != primary_->machine().id()) {
    return 0;
  }
  const SimTime horizon =
      now > params_.damping.cycleWindow ? now - params_.damping.cycleWindow : 0;
  int count = 0;
  for (const SimTime at : cycle_times_) {
    if (at >= horizon) ++count;
  }
  return count;
}

void HybridCoordinator::noteCycleCompleted(SimTime at) {
  if (!params_.damping.enabled) return;
  const MachineId machine = primary_->machine().id();
  if (cycle_machine_ != machine) {
    cycle_times_.clear();
    cycle_machine_ = machine;
  }
  cycle_times_.push_back(at);
  const SimTime horizon =
      at > params_.damping.cycleWindow ? at - params_.damping.cycleWindow : 0;
  cycle_times_.erase(
      std::remove_if(cycle_times_.begin(), cycle_times_.end(),
                     [horizon](SimTime t) { return t < horizon; }),
      cycle_times_.end());
}

bool HybridCoordinator::shouldQuarantine(SimTime now) const {
  if (!params_.damping.enabled) return false;
  // One quarantine at a time: while a node sits in quarantine the promoted
  // primary's own troubles follow the normal switchover/rollback path.
  if (quarantined_machine_ != kNoMachine) return false;
  return cyclesInWindow(now) >= params_.damping.maxCycles;
}

void HybridCoordinator::quarantineAndPromote(SimTime now) {
  const MachineId victim = primary_->machine().id();
  const std::uint64_t incident = current_timeline_ < recoveries_.size()
                                     ? recoveries_[current_timeline_].incidentId
                                     : 0;
  const auto cycles = static_cast<std::uint64_t>(cyclesInWindow(now));
  ++flaps_detected_;
  ++quarantines_;
  recordIncidentEvent(TraceEventType::kFlapDetected, incident, victim,
                      secondary_->machine().id(), cycles);
  recordIncidentEvent(
      TraceEventType::kQuarantineBegin, incident, victim,
      secondary_->machine().id(), cycles,
      static_cast<std::uint64_t>(params_.damping.quarantineFor));
  LOG_INFO(sim().now(), "hybrid")
      << "flap detected on machine " << victim << " (" << cycles
      << " cycles in window); quarantining and promoting secondary of subjob "
      << subjob_;
  quarantined_machine_ = victim;
  if (params_.quarantineListener) params_.quarantineListener(victim, true);
  failstop_timer_.cancel();
  // Permanent promotion: the secondary becomes primary and a fresh standby is
  // deployed on the spare (or the job runs degraded if there is none).
  promote();
  cycle_times_.clear();
  cycle_machine_ = kNoMachine;
  probe_streak_ = 0;
  ++probe_epoch_;  // Kill any probe chain from a previous quarantine.
  scheduleReadmitProbe(params_.damping.quarantineFor);
}

void HybridCoordinator::scheduleReadmitProbe(SimDuration delay) {
  const std::uint64_t epoch = probe_epoch_;
  sim().schedule(delay, [this, epoch] {
    if (epoch != probe_epoch_) return;
    probeQuarantined();
  });
}

void HybridCoordinator::probeQuarantined() {
  if (quarantined_machine_ == kNoMachine) return;
  const SimDuration interval = params_.damping.probeInterval > 0
                                   ? params_.damping.probeInterval
                                   : params_.heartbeat.interval;
  Machine& machine = cluster().machine(quarantined_machine_);
  if (!machine.isUp()) {
    // Crashed while quarantined: keep waiting -- re-admission requires the
    // node to come back and then answer a full healthy streak.
    probe_streak_ = 0;
    scheduleReadmitProbe(interval);
    return;
  }
  // One probe ping, same path as a heartbeat: deliver, control work on the
  // quarantined node, reply. Timeliness is judged against the probe interval.
  const MachineId monitorM = primary_->machine().id();
  const MachineId targetM = quarantined_machine_;
  Machine* target = &machine;
  const std::uint64_t epoch = probe_epoch_;
  auto answered = std::make_shared<bool>(false);
  net().send(monitorM, targetM, MsgKind::kHeartbeatPing,
             params_.heartbeat.pingBytes, 0,
             [this, target, answered, monitorM, targetM, epoch] {
               if (epoch != probe_epoch_) return;
               target->submitControl(
                   params_.heartbeat.replyWorkUs,
                   [this, answered, monitorM, targetM, epoch] {
                     if (epoch != probe_epoch_) return;
                     net().send(targetM, monitorM, MsgKind::kHeartbeatReply,
                                params_.heartbeat.replyBytes, 0,
                                [answered] { *answered = true; });
                   });
             });
  sim().schedule(interval, [this, answered, epoch] {
    if (epoch != probe_epoch_) return;
    if (quarantined_machine_ == kNoMachine) return;
    if (*answered) {
      ++probe_streak_;
      if (probe_streak_ >= params_.damping.readmitStreak) {
        readmitQuarantined();
        return;
      }
    } else {
      probe_streak_ = 0;
    }
    probeQuarantined();
  });
}

void HybridCoordinator::readmitQuarantined() {
  const MachineId machine = quarantined_machine_;
  quarantined_machine_ = kNoMachine;
  ++readmissions_;
  recordIncidentEvent(TraceEventType::kQuarantineEnd, 0, machine,
                      primary_->machine().id(),
                      static_cast<std::uint64_t>(probe_streak_));
  LOG_INFO(sim().now(), "hybrid")
      << "re-admitting machine " << machine << " after " << probe_streak_
      << " healthy probe replies (subjob " << subjob_ << ")";
  if (params_.quarantineListener) params_.quarantineListener(machine, false);
  // The node re-joins the pool: if no spare is provisioned it becomes the
  // spare used by the next fail-stop promotion.
  if (params_.spareMachine == kNoMachine) params_.spareMachine = machine;
  probe_streak_ = 0;
  ++probe_epoch_;
}

// ---------------------------------------------------------------------------
// Domain-loss recovery (place/): when a correlated burst kills the machines
// hosting primary AND secondary together, no detector path can help -- the
// monitor died with the standby. The coordinator instead watches the hosting
// machines directly, classifies what a crash burst took out, and either
// re-provisions a fresh primary from the last confirmed checkpoint
// (both-dead) or stands a fresh standby up (standby-only loss). Safety rests
// on the queue-trim invariant: removing both dead copies' wires leaves their
// upstream queues with zero gating connections, and a queue with no gating
// consumers retains everything -- so the replacement can always replay from
// its checkpoint watermark.
// ---------------------------------------------------------------------------

void HybridCoordinator::watchMachine(MachineId machine) {
  if (!reprovisionEnabled() || machine == kNoMachine) return;
  if (!watched_machines_.insert(machine).second) return;
  cluster().machine(machine).addCrashListener([this] {
    onWatchedMachineCrash();
  });
}

void HybridCoordinator::onWatchedMachineCrash() {
  // Coalesce: a burst staggers its kills, and classifying after the first
  // crash would mistake a budding domain loss for a plain primary failure.
  if (assess_pending_) return;
  assess_pending_ = true;
  sim().schedule(params_.reprovisionConfirm, [this] { assessLoss(); });
}

void HybridCoordinator::assessLoss() {
  assess_pending_ = false;
  const bool primaryAlive = primary_ != nullptr && primary_->alive();
  if (reprovisioning_) {
    if (reprovision_target_ != kNoMachine &&
        !cluster().machineUp(reprovision_target_)) {
      // The chosen replacement died mid-flight: invalidate its pending
      // callbacks, tear down any partial copy and re-choose.
      ++place_epoch_;
      ++reprovision_retries_;
      if (primary_ != nullptr &&
          primary_->machine().id() == reprovision_target_) {
        isolateInstance(*primary_);
        primary_->terminateAll();
        rt_.removeWiresOf(*primary_);
      }
      reprovision_target_ = kNoMachine;
      deployReplacement();
    }
    return;
  }
  if (rebuild_reason_ != RebuildReason::kNone) {
    if (rebuild_target_ != kNoMachine &&
        !cluster().machineUp(rebuild_target_)) {
      // The standby rebuild target died before its deployment finished.
      ++place_epoch_;
      ++reprovision_retries_;
      rebuild_target_ = kNoMachine;
      rebuildStandby();
    }
    return;
  }
  if (promoting_ && primaryAlive && rebuild_target_ != kNoMachine &&
      !cluster().machineUp(rebuild_target_)) {
    // The promotion's spare died during its deployment -- the completion
    // callback is gone. Un-wedge and rebuild protection from scratch.
    ++place_epoch_;
    ++reprovision_retries_;
    rebuild_target_ = kNoMachine;
    promoting_ = false;
    switched_ = false;
    redeployStandby();
    return;
  }
  const bool secondaryDead = secondary_ != nullptr && !secondary_->alive();
  const bool standbyHostDown = params_.standbyMachine != kNoMachine &&
                               !cluster().machineUp(params_.standbyMachine);
  if (!primaryAlive && (secondary_ == nullptr || secondaryDead)) {
    beginDomainLossRecovery();
    return;
  }
  if (primaryAlive && !promoting_ &&
      (secondaryDead || (secondary_ == nullptr && standbyHostDown))) {
    redeployStandby();
    return;
  }
  // Primary dead, secondary alive: the ordinary detector -> switchover ->
  // fail-stop promotion path owns this case.
}

void HybridCoordinator::beginDomainLossRecovery() {
  ++domain_losses_;
  ++place_epoch_;
  reprovisioning_ = true;
  failstop_timer_.cancel();
  holdoff_pending_ = false;
  rebuild_target_ = kNoMachine;

  const MachineId deadPrimaryM =
      primary_ != nullptr ? primary_->machine().id() : kNoMachine;
  const MachineId deadStandbyM = params_.standbyMachine;

  // Snapshot the last *confirmed* checkpoint before retiring the store. The
  // store object models durably replicated checkpoint bytes -- they survive
  // the standby machine, which is exactly what re-provisioning needs (cf.
  // the paper's Section VII persist-to-disk discussion).
  reprovision_state_ = store_ != nullptr ? store_->latest(subjob_)
                                         : SubjobState{};
  reprovision_baseline_ = 0;
  if (primary_ != nullptr) {
    reprovision_baseline_ = primary_->lastPe().output(0).nextSeq();
  }
  if (secondary_ != nullptr) {
    reprovision_baseline_ = std::max(
        reprovision_baseline_, secondary_->lastPe().output(0).nextSeq());
  }

  RecoveryTimeline timeline;
  timeline.incidentId = beginTraceIncident();
  timeline.detectedAt = sim().now();
  recoveries_.push_back(timeline);
  reprovision_timeline_ = recoveries_.size() - 1;
  current_timeline_ = reprovision_timeline_;
  recordIncidentEvent(TraceEventType::kDomainLoss, timeline.incidentId,
                      deadPrimaryM, deadStandbyM);
  LOG_INFO(sim().now(), "hybrid")
      << "domain loss for subjob " << subjob_ << ": primary (machine "
      << deadPrimaryM << ") and standby (machine " << deadStandbyM
      << ") down together; re-provisioning from checkpoint";

  // Tear both dead copies down. Their gating connections disappear with the
  // wires; an upstream queue left with no gating consumers retains
  // everything (stream/queues.cpp), so nothing can be trimmed before the
  // replacement re-wires and replays.
  quiescer_.release();  // Cancels any rollback quiesce pending on the dead copy.
  if (secondary_ != nullptr) {
    isolateInstance(*secondary_);
    secondary_->terminateAll();
    rt_.removeWiresOf(*secondary_);
    secondary_ = nullptr;
  }
  if (primary_ != nullptr) {
    isolateInstance(*primary_);
    primary_->terminateAll();
    rt_.removeWiresOf(*primary_);
  }
  if (store_ != nullptr) store_->detachReplica(subjob_);
  retire(std::move(cm_));
  retire(std::move(detector_));
  retire(std::move(store_));
  switched_ = false;
  promoting_ = false;
  resume_in_flight_ = false;

  deployReplacement();
}

void HybridCoordinator::deployReplacement() {
  PlacementPlanner::Request request;
  for (const MachineId watched : watched_machines_) {
    if (!cluster().machineUp(watched)) {
      // Spread away from everything the burst just proved correlated.
      request.avoidMachines.push_back(watched);
      request.preferDisjointFrom.push_back(watched);
    }
  }
  const MachineId target = params_.planner->choose(request);
  const std::uint64_t epoch = place_epoch_;
  if (target == kNoMachine) {
    // Pool exhausted; keep the retained upstream queues and retry.
    ++reprovision_retries_;
    sim().schedule(params_.reprovisionRetry, [this, epoch] {
      if (epoch != place_epoch_ || !reprovisioning_) return;
      deployReplacement();
    });
    return;
  }
  reprovision_target_ = target;
  watchMachine(target);
  recordIncidentEvent(TraceEventType::kReprovisionBegin,
                      recoveries_[reprovision_timeline_].incidentId,
                      primary_ != nullptr ? primary_->machine().id()
                                          : kNoMachine,
                      target, reprovision_state_.sizeBytes());
  cluster().machine(target).submitData(
      rt_.costs().deployWorkUs, [this, epoch, target] {
        if (epoch != place_epoch_ || !reprovisioning_) return;
        activateReplacement(target);
      });
}

void HybridCoordinator::activateReplacement(MachineId target) {
  primary_ = &rt_.instantiate(subjob_, target, Replica::kPrimary);
  primary_->setAckPolicy(AckPolicy::kOnCheckpoint);
  recoveries_[reprovision_timeline_].redeployDoneAt = sim().now();
  recordIncidentEvent(TraceEventType::kRedeployDone,
                      recoveries_[reprovision_timeline_].incidentId, target,
                      kNoMachine);
  const std::uint64_t epoch = place_epoch_;
  rt_.wireInstanceWithCost(
      *primary_, Runtime::WireOpts{false, false},
      Runtime::WireOpts{false, false}, [this, epoch] {
        if (epoch != place_epoch_ || !reprovisioning_) return;
        primary_->applyState(reprovision_state_);
        recoveries_[reprovision_timeline_].connectionsReadyAt = sim().now();
        recordIncidentEvent(TraceEventType::kConnectionsReady,
                            recoveries_[reprovision_timeline_].incidentId,
                            primary_->machine().id(), kNoMachine);
        watchFirstOutput(*primary_, reprovision_timeline_,
                         reprovision_baseline_);
        // Inbound wires rewind to the checkpoint watermarks and replay the
        // retained upstream queues; outbound duplicates below the baseline
        // are absorbed by downstream dedup.
        activateRestoredInstance(*primary_, reprovision_state_,
                                 /*gateInbound=*/true);
        ++reprovisions_;
        reprovision_target_ = kNoMachine;
        rebuild_reason_ = RebuildReason::kAfterReprovision;
        rebuild_carry_ = reprovision_state_;
        rebuildStandby();
      });
}

void HybridCoordinator::noteMemberLeft(MachineId machine, bool graceful) {
  (void)graceful;  // Both causes drain the same way; the reason is traced.
  if (machine != params_.standbyMachine) return;
  // Mid-incident the secondary is (or is becoming) the live copy -- the
  // assessLoss/promote machinery owns it; don't tear it down underneath.
  if (switched_ || promoting_) return;
  redeployStandby();
}

void HybridCoordinator::redeployStandby() {
  if (!reprovisionEnabled() || reprovisioning_ ||
      rebuild_reason_ != RebuildReason::kNone || promoting_) {
    return;
  }
  if (primary_ == nullptr || !primary_->alive()) return;
  ++place_epoch_;
  failstop_timer_.cancel();
  holdoff_pending_ = false;
  quiescer_.release();
  if (secondary_ != nullptr) {
    isolateInstance(*secondary_);
    secondary_->terminateAll();
    rt_.removeWiresOf(*secondary_);
    secondary_ = nullptr;
  }
  if (store_ != nullptr) {
    store_->detachReplica(subjob_);
    rebuild_carry_ = store_->latest(subjob_);
  }
  retire(std::move(cm_));
  retire(std::move(detector_));
  retire(std::move(store_));
  switched_ = false;
  resume_in_flight_ = false;
  rebuild_reason_ = RebuildReason::kStandbyLoss;
  rebuildStandby();
}

void HybridCoordinator::rebuildStandby() {
  PlacementPlanner::Request request;
  request.avoidMachines.push_back(primary_->machine().id());
  if (quarantined_machine_ != kNoMachine) {
    request.avoidMachines.push_back(quarantined_machine_);
  }
  request.preferDisjointFrom.push_back(primary_->machine().id());
  const MachineId target = params_.planner->choose(request);
  const std::uint64_t epoch = place_epoch_;
  if (target == kNoMachine) {
    // Degraded: checkpoint locally so the job keeps running unprotected.
    store_ = std::make_unique<StateStore>(sim(), primary_->machine(),
                                          params_.store);
    store_->setTrace(trace());
    params_.standbyMachine = kNoMachine;
    seedRebuiltStore();
    cm_ = makeCheckpointManager(*primary_, *store_);
    cm_->start();
    onStandbyRebuilt(kNoMachine, /*degraded=*/true);
    return;
  }
  rebuild_target_ = target;
  watchMachine(target);
  cluster().machine(target).submitData(
      rt_.costs().deployWorkUs, [this, epoch, target] {
        if (epoch != place_epoch_ ||
            rebuild_reason_ == RebuildReason::kNone) {
          return;
        }
        store_ = std::make_unique<StateStore>(
            sim(), cluster().machine(target), params_.store);
        store_->setTrace(trace());
        params_.standbyMachine = target;
        predeploySecondary(target);
        seedRebuiltStore();
        cm_ = makeCheckpointManager(*primary_, *store_);
        cm_->start();
        installDetector(target, primary_->machine());
        rebuild_target_ = kNoMachine;
        onStandbyRebuilt(target, /*degraded=*/false);
      });
}

void HybridCoordinator::seedRebuiltStore() {
  // The swap must not lose durable ground: acks for the carried checkpoint
  // were already released upstream, so if the primary dies before the fresh
  // checkpoint manager confirms its first checkpoint, promotion/re-provision
  // would otherwise restore an *empty* state against already-trimmed queues
  // -- an unrecoverable gap. Seeding also refreshes the attached suspended
  // copy's PE memory.
  if (rebuild_carry_.empty()) return;
  store_->storeSubjobState(rebuild_carry_, [] {});
}

void HybridCoordinator::onStandbyRebuilt(MachineId standby, bool degraded) {
  const RebuildReason reason = rebuild_reason_;
  rebuild_reason_ = RebuildReason::kNone;
  rebuild_carry_ = SubjobState{};
  if (reason == RebuildReason::kAfterReprovision) {
    recordIncidentEvent(TraceEventType::kReprovisionEnd,
                        recoveries_[reprovision_timeline_].incidentId,
                        primary_->machine().id(), standby,
                        degraded ? 1 : 0);
    reprovisioning_ = false;
    LOG_INFO(sim().now(), "hybrid")
        << "re-provisioned subjob " << subjob_ << " on machine "
        << primary_->machine().id()
        << (degraded ? " (degraded: no standby)" : "");
  } else {
    ++standby_redeploys_;
    LOG_INFO(sim().now(), "hybrid")
        << "redeployed standby of subjob " << subjob_ << " on machine "
        << standby << (degraded ? " (degraded: no standby)" : "");
  }
}

}  // namespace streamha
