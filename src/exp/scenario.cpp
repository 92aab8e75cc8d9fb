#include "exp/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "detect/accrual.hpp"
#include "net/reliable.hpp"
#include "stream/job.hpp"

namespace streamha {

Scenario::Scenario(ScenarioParams params) : params_(std::move(params)) {}

Scenario::~Scenario() {
  // Coordinators and the flow subsystem reference the runtime/cluster;
  // destroy them first. The injector detaches its network hook, so it too
  // must die before the cluster.
  flow_.reset();
  membership_.reset();  // Listeners reference the planner and coordinators.
  coordinators_.clear();
  planner_.reset();
  load_generators_.clear();
  runtime_.reset();
  injector_.reset();
  cluster_.reset();
}

MachineId Scenario::primaryMachineOf(SubjobId subjob) const {
  return static_cast<MachineId>(subjob);
}

MachineId Scenario::standbyMachineOf(SubjobId subjob) const {
  return subjob >= 0 && static_cast<std::size_t>(subjob) < standby_of_.size()
             ? standby_of_[static_cast<std::size_t>(subjob)]
             : kNoMachine;
}

MachineId Scenario::sinkMachine() const { return sink_machine_; }

std::size_t Scenario::machineCount() const { return machine_count_; }

ScenarioLayout Scenario::layoutFor(const ScenarioParams& params) {
  ScenarioLayout layout;
  layout.numSubjobs =
      (params.numPes + params.pesPerSubjob - 1) / params.pesPerSubjob;
  layout.standbyOf.assign(static_cast<std::size_t>(layout.numSubjobs),
                          kNoMachine);
  layout.spareOf.assign(static_cast<std::size_t>(layout.numSubjobs),
                        kNoMachine);
  layout.sinkMachine = static_cast<MachineId>(layout.numSubjobs);
  MachineId next = layout.sinkMachine + 1;
  if (params.placement.enabled && params.mode != HaMode::kNone) {
    // Placement: standbys are *selected* from a shared replacement pool by
    // the planner instead of occupying dedicated layout slots. Spares stay
    // kNoMachine -- runtime replacements route through the planner too.
    for (int i = 0; i < params.placement.poolMachines; ++i) {
      layout.poolMachines.push_back(next++);
    }
    std::vector<MachineId> primaries;
    for (SubjobId sj : params.protectedSubjobs) {
      primaries.push_back(layout.primaryOf(sj));
    }
    const std::vector<MachineId> standbys =
        PlacementPlanner::planInitialStandbys(
            params.placement.topology, params.placement.domainAware,
            layout.poolMachines, primaries);
    for (std::size_t i = 0; i < params.protectedSubjobs.size(); ++i) {
      layout.standbyOf[static_cast<std::size_t>(params.protectedSubjobs[i])] =
          standbys[i];
    }
    if (params.membership.enabled) {
      for (int i = 0; i < params.membership.latentMachines; ++i) {
        layout.latentMachines.push_back(next++);
      }
    }
    layout.machineCount = static_cast<std::size_t>(next);
    return layout;
  }
  if (params.mode != HaMode::kNone) {
    if (params.sharedSecondary) {
      const MachineId shared = next++;
      for (SubjobId sj : params.protectedSubjobs) {
        layout.standbyOf[static_cast<std::size_t>(sj)] = shared;
      }
    } else {
      for (SubjobId sj : params.protectedSubjobs) {
        layout.standbyOf[static_cast<std::size_t>(sj)] = next++;
      }
    }
    if (params.provisionSpares) {
      for (SubjobId sj : params.protectedSubjobs) {
        layout.spareOf[static_cast<std::size_t>(sj)] = next++;
      }
    }
  }
  if (params.membership.enabled) {
    // Latent machines: powered up, outside the roster until a churn join.
    for (int i = 0; i < params.membership.latentMachines; ++i) {
      layout.latentMachines.push_back(next++);
    }
  }
  layout.machineCount = static_cast<std::size_t>(next);
  return layout;
}

void Scenario::build() {
  const ScenarioLayout layout = layoutFor(params_);
  const int numSubjobs = layout.numSubjobs;
  standby_of_ = layout.standbyOf;
  spare_of_ = layout.spareOf;
  latent_machines_ = layout.latentMachines;
  sink_machine_ = layout.sinkMachine;
  machine_count_ = layout.machineCount;

  Cluster::Params clusterParams;
  clusterParams.machineCount = machine_count_;
  clusterParams.seed = params_.seed;
  clusterParams.machine = params_.machineParams;
  clusterParams.topology = params_.placement.topology;
  cluster_ = std::make_unique<Cluster>(clusterParams);

  if (params_.placement.enabled && params_.mode != HaMode::kNone) {
    planner_ = std::make_unique<PlacementPlanner>(
        *cluster_, params_.placement.topology, params_.placement.domainAware,
        layout.poolMachines);
    // Layout-time standby assignments count toward occupancy so runtime
    // choices spread away from them.
    for (SubjobId sj : params_.protectedSubjobs) {
      const MachineId standby = standbyMachineOf(sj);
      if (standby != kNoMachine) planner_->noteAssigned(standby);
    }
  }

  if (params_.trace.enabled) {
    TraceRecorder::Params traceParams;
    traceParams.maxEvents = params_.trace.maxEvents;
    recorder_ = std::make_unique<TraceRecorder>(traceParams);
    if (!params_.trace.messageEvents) {
      recorder_->setEnabled(TraceEventType::kMessageSent, false);
      recorder_->setEnabled(TraceEventType::kMessageDelivered, false);
    }
    if (!params_.trace.queueTrim) {
      recorder_->setEnabled(TraceEventType::kQueueTrim, false);
    }
    cluster_->attachTrace(recorder_.get());
  }

  if (!params_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(*cluster_, params_.faults,
                                                params_.faultSeedSalt);
    // Faulty transport needs the loss-recovery machinery on; keep any value
    // the caller chose explicitly.
    if (params_.costs.retransmitTimeout == 0) {
      params_.costs.retransmitTimeout = 250 * kMillisecond;
    }
  }

  // Arm the control-plane ARQ layer when faults can lose messages OR when
  // flow control wants a bounded send window (checkpoint ship/confirm,
  // rewiring round-trips, NACKs, state reads and pause/resume credits all
  // ride it). Fault-free flow-disabled runs never arm it, keeping their
  // traffic and traces bit-identical to pre-ARQ builds.
  const bool wantArq =
      !params_.faults.empty() ||
      (params_.flow.enabled && params_.flow.sendWindow > 0);
  if (wantArq && !cluster_->network().reliableEnabled()) {
    ReliableParams arq;
    arq.retryTimeout = params_.costs.retransmitTimeout != 0
                           ? params_.costs.retransmitTimeout
                           : 250 * kMillisecond;
    if (params_.flow.enabled) {
      arq.sendWindow = params_.flow.sendWindow;
      arq.parkedCap = params_.flow.parkedCap;
    }
    cluster_->network().enableReliable(arq);
  }

  JobSpec spec = JobBuilder::chain(
      params_.numPes, params_.pesPerSubjob, params_.peWorkUs,
      params_.selectivity, params_.stateBytes, params_.payloadBytes);
  if (params_.stateKeyBytes > 0) {
    // Keyed state: each element dirties one key region, the workload shape
    // delta checkpointing is built for (see ScenarioParams::stateKeyBytes).
    const double selectivity = params_.selectivity;
    const std::size_t stateBytes = params_.stateBytes;
    const std::size_t keyBytes = params_.stateKeyBytes;
    for (auto& pe : spec.pes) {
      pe.logicFactory = [selectivity, stateBytes, keyBytes] {
        return std::make_unique<KeyedStateLogic>(selectivity, stateBytes,
                                                 keyBytes);
      };
    }
  }
  runtime_ = std::make_unique<Runtime>(*cluster_, spec, params_.costs);

  Source::Params sourceParams;
  sourceParams.ratePerSec = params_.dataRatePerSec;
  sourceParams.pattern = params_.sourcePattern;
  sourceParams.payloadBytes = params_.payloadBytes;
  sourceParams.shapeRatePerSec = params_.shapeRatePerSec;
  runtime_->addSource(0, sourceParams);
  runtime_->addSink(sink_machine_);

  std::vector<MachineId> placement;
  for (int i = 0; i < numSubjobs; ++i) {
    placement.push_back(static_cast<MachineId>(i));
  }
  runtime_->deployPrimaries(placement);

  createCoordinators();
  createLoadGenerators();

  if (params_.membership.enabled) {
    MembershipService::Params mp;
    mp.directory = sink_machine_;
    mp.beaconInterval = params_.membership.beaconInterval;
    mp.leaseDuration = params_.membership.leaseDuration;
    mp.warmUp = params_.membership.warmUp;
    membership_ = std::make_unique<MembershipService>(*cluster_, mp);

    // Roster wiring. Pool eligibility: any member that is not a primary and
    // not the sink can host replacement copies -- the original pool machines
    // re-qualify on re-join, latent machines qualify once warmed up.
    const MachineId firstNonPrimary = static_cast<MachineId>(numSubjobs);
    MembershipService::Listener listener;
    listener.onJoined = [this, firstNonPrimary](MachineId m) {
      if (planner_ == nullptr) return;
      if (m < firstNonPrimary || m == sink_machine_) return;
      planner_->addPoolMachine(m, /*warm=*/false);
    };
    listener.onWarmedUp = [this](MachineId m) {
      if (planner_ != nullptr) planner_->setWarm(m);
    };
    listener.onLeft = [this](MachineId m,
                             MembershipService::LeaveReason reason) {
      if (planner_ != nullptr) planner_->removePoolMachine(m);
      for (auto& c : coordinators_) {
        if (auto* hybrid = dynamic_cast<HybridCoordinator*>(c.get())) {
          hybrid->noteMemberLeft(
              m, reason == MembershipService::LeaveReason::kRetired);
        }
      }
    };
    membership_->setListener(std::move(listener));

    // Every static-layout machine is a founding member (silent registration,
    // already warm); latent machines wait for a churn join.
    for (std::size_t m = 0; m < machine_count_; ++m) {
      const MachineId id = static_cast<MachineId>(m);
      if (std::find(latent_machines_.begin(), latent_machines_.end(), id) ==
          latent_machines_.end()) {
        membership_->addFoundingMember(id);
      }
    }

    // Churn schedule: membership actions are interpreted here, not by the
    // fault injector -- they are roster transitions, not message faults.
    for (const ChurnSpec& churn : params_.faults.churn) {
      const MachineId m = churn.machine;
      const SimDuration delay =
          churn.at > cluster_->sim().now() ? churn.at - cluster_->sim().now()
                                           : 0;
      switch (churn.kind) {
        case ChurnKind::kJoin:
          cluster_->sim().schedule(delay,
                                   [this, m] { membership_->startBeacon(m); });
          break;
        case ChurnKind::kRetire:
          cluster_->sim().schedule(delay,
                                   [this, m] { membership_->retire(m); });
          break;
        case ChurnKind::kSilence:
          cluster_->sim().schedule(delay,
                                   [this, m] { membership_->stopBeacon(m); });
          break;
      }
    }
  }

  // Flow control adopts every instance (and, via the runtime's instance
  // listener, every copy instantiated later) after the coordinators exist,
  // so pre-deployed standby copies are covered too.
  if (params_.flow.enabled) {
    flow_ = std::make_unique<flow::FlowControl>(*runtime_, params_.flow);
    flow_->adoptAll();
  }

  // Open a provisional measurement window so collect() works even when the
  // caller skips warmup() (e.g. exactness tests that must see every element).
  window_start_ = cluster_->sim().now();
  traffic_baseline_ = cluster_->network().snapshot();
  load_integral_baseline_.clear();
  for (std::size_t m = 0; m < machine_count_; ++m) {
    load_integral_baseline_.push_back(
        cluster_->machine(static_cast<MachineId>(m)).loadIntegral());
  }
}

void Scenario::createCoordinators() {
  if (params_.mode == HaMode::kNone) return;
  for (SubjobId sj : params_.protectedSubjobs) {
    HaParams ha;
    ha.standbyMachine = standbyMachineOf(sj);
    ha.spareMachine = spare_of_[static_cast<std::size_t>(sj)];
    ha.heartbeat.interval = params_.heartbeatInterval;
    ha.heartbeat.recoverThreshold = params_.recoverThreshold;
    ha.checkpoint.interval = params_.checkpointInterval;
    if (!params_.faults.empty() && ha.checkpoint.confirmTimeout == 0) {
      ha.checkpoint.confirmTimeout = 1 * kSecond;
    }
    ha.checkpointKind = params_.checkpointKind;
    ha.failStopAfter = params_.failStopAfter;
    ha.detectorFactory = params_.detectorFactory;
    if (!ha.detectorFactory && params_.accrual.enabled) {
      AccrualDetector::Params ad;
      ad.interval = params_.heartbeatInterval;
      ad.failPhi = params_.accrual.failPhi;
      ad.recoverPhi = params_.accrual.recoverPhi;
      ad.recoverStreak = params_.accrual.recoverStreak;
      ad.historySize = params_.accrual.historySize;
      ha.detectorFactory = [this, ad](Simulator& sim, Network& net,
                                      Machine& monitor, Machine& target,
                                      FailureDetector::Callbacks callbacks) {
        auto detector = std::make_unique<AccrualDetector>(
            sim, net, monitor, target, ad, std::move(callbacks));
        accrual_detectors_.push_back(detector.get());
        return detector;
      };
    }
    ha.damping = params_.damping;
    if (planner_ != nullptr) {
      ha.planner = planner_.get();
      ha.reprovisionOnDomainLoss = params_.placement.reprovision;
      ha.reprovisionConfirm = params_.placement.reprovisionConfirm;
      ha.reprovisionRetry = params_.placement.reprovisionRetry;
      // Quarantine verdicts make the machine ineligible for every planner
      // choice (spares, fresh standbys, re-provision targets) until
      // re-admission.
      PlacementPlanner* planner = planner_.get();
      ha.quarantineListener = [planner](MachineId machine, bool quarantined) {
        planner->setQuarantined(machine, quarantined);
      };
    }
    ha.store = params_.store;
    ha.predeploySecondary = params_.predeploySecondary;
    ha.earlyConnections = params_.earlyConnections;
    ha.readStateOnRollback = params_.readStateOnRollback;
    std::unique_ptr<HaCoordinator> coordinator;
    switch (params_.mode) {
      case HaMode::kActiveStandby:
        ha.heartbeat.missThreshold = params_.psMissThreshold;
        coordinator =
            std::make_unique<ActiveStandbyCoordinator>(*runtime_, sj, ha);
        break;
      case HaMode::kPassiveStandby:
        ha.heartbeat.missThreshold = params_.psMissThreshold;
        coordinator =
            std::make_unique<PassiveStandbyCoordinator>(*runtime_, sj, ha);
        break;
      case HaMode::kHybrid:
        ha.heartbeat.missThreshold = params_.hybridMissThreshold;
        coordinator = std::make_unique<HybridCoordinator>(*runtime_, sj, ha);
        break;
      case HaMode::kNone:
        break;
    }
    if (coordinator != nullptr) {
      coordinator->setup();
      coordinators_.push_back(std::move(coordinator));
    }
  }
}

void Scenario::createLoadGenerators() {
  if (params_.failureFraction <= 0.0) return;
  loaded_machines_.clear();
  const int numSubjobs =
      (params_.numPes + params_.pesPerSubjob - 1) / params_.pesPerSubjob;
  if (params_.failuresOnPrimaries) {
    if (params_.failurePlacement ==
        ScenarioParams::FailurePlacement::kAllButFirst) {
      // "on all primary machines except the first one in the chain".
      for (int i = 1; i < numSubjobs; ++i) {
        loaded_machines_.push_back(static_cast<MachineId>(i));
      }
    } else {
      for (SubjobId sj : params_.protectedSubjobs) {
        const MachineId m = primaryMachineOf(sj);
        if (m != 0) loaded_machines_.push_back(m);
      }
    }
  }
  if (params_.failuresOnStandbys) {
    std::vector<MachineId> added;
    for (SubjobId sj : params_.protectedSubjobs) {
      const MachineId standby = standbyMachineOf(sj);
      if (standby != kNoMachine &&
          std::find(added.begin(), added.end(), standby) == added.end()) {
        added.push_back(standby);
        loaded_machines_.push_back(standby);
      }
    }
  }
  SpikeSpec spec = SpikeSpec::fromTimeFraction(
      params_.failureDuration, params_.failureFraction,
      params_.failureMagnitude, !params_.regularFailures);
  spec.rampDuration = params_.failureRamp;
  for (MachineId m : loaded_machines_) {
    load_generators_.push_back(std::make_unique<LoadGenerator>(
        cluster_->sim(), cluster_->machine(m), spec,
        cluster_->forkRng(stableHash("loadgen") ^
                          static_cast<std::uint64_t>(m))));
  }
}

LoadGenerator* Scenario::loadGeneratorOn(MachineId machine) {
  // loaded_machines_ and load_generators_ are parallel vectors.
  for (std::size_t i = 0;
       i < loaded_machines_.size() && i < load_generators_.size(); ++i) {
    if (loaded_machines_[i] == machine) return load_generators_[i].get();
  }
  return nullptr;
}

std::vector<HaCoordinator*> Scenario::coordinators() {
  std::vector<HaCoordinator*> out;
  out.reserve(coordinators_.size());
  for (auto& c : coordinators_) out.push_back(c.get());
  return out;
}

HaCoordinator* Scenario::coordinatorFor(SubjobId subjob) {
  for (auto& c : coordinators_) {
    if (c->subjobId() == subjob) return c.get();
  }
  return nullptr;
}

void Scenario::start() {
  if (started_) return;
  started_ = true;
  runtime_->start();
}

void Scenario::warmup() {
  start();
  cluster_->sim().runUntil(cluster_->sim().now() + params_.warmup);
  sink().resetStats();
  window_start_ = cluster_->sim().now();
  traffic_baseline_ = cluster_->network().snapshot();
  load_integral_baseline_.clear();
  for (std::size_t m = 0; m < machine_count_; ++m) {
    load_integral_baseline_.push_back(
        cluster_->machine(static_cast<MachineId>(m)).loadIntegral());
  }
}

void Scenario::startFailures() {
  if (failures_running_) return;
  failures_running_ = true;
  for (auto& gen : load_generators_) gen->start();
}

void Scenario::stopFailures() {
  failures_running_ = false;
  for (auto& gen : load_generators_) gen->stop();
}

void Scenario::run(SimDuration duration) {
  cluster_->sim().runUntil(cluster_->sim().now() + duration);
}

void Scenario::drain(SimDuration grace) {
  source().stop();
  stopFailures();
  cluster_->sim().runUntil(cluster_->sim().now() + grace);
}

QuiescenceReport Scenario::drainQuiescent(SimDuration maxGrace,
                                          SimDuration tick, int stableTicks) {
  source().stop();
  stopFailures();

  // Largest unacked backlog any live producer still owes a live consumer.
  const auto maxLiveBacklog = [this] {
    std::uint64_t backlog = source().output().unackedBacklog();
    for (const auto& inst : runtime_->allInstances()) {
      if (!inst->alive()) continue;
      for (std::size_t i = 0; i < inst->peCount(); ++i) {
        for (std::size_t p = 0; p < inst->pe(i).portCount(); ++p) {
          backlog = std::max(backlog, inst->pe(i).output(p).unackedBacklog());
        }
      }
    }
    return backlog;
  };

  QuiescenceReport report;
  const SimTime deadline = cluster_->sim().now() + maxGrace;
  std::uint64_t lastSink = sink().receivedCount();
  std::uint64_t lastData =
      cluster_->network().counters().messagesOf(MsgKind::kData);
  const ReliableDelivery* arq = cluster_->network().reliable();
  std::uint64_t lastRetransmits = arq != nullptr ? arq->stats().retransmits : 0;
  int sinkStableRun = 0;
  int cleanRun = 0;
  while (cluster_->sim().now() < deadline) {
    run(tick);
    const std::uint64_t sinkNow = sink().receivedCount();
    const std::uint64_t dataNow =
        cluster_->network().counters().messagesOf(MsgKind::kData);
    const std::uint64_t retrNow =
        arq != nullptr ? arq->stats().retransmits : 0;
    const std::uint64_t tracked = arq != nullptr ? arq->inFlight() : 0;
    const std::uint64_t backlog = maxLiveBacklog();
    const bool sinkStable = sinkNow == lastSink;
    const bool cleanTick = sinkStable && dataNow == lastData &&
                           retrNow == lastRetransmits && tracked == 0 &&
                           backlog == 0;
    sinkStableRun = sinkStable ? sinkStableRun + 1 : 0;
    cleanRun = cleanTick ? cleanRun + 1 : 0;
    lastSink = sinkNow;
    lastData = dataNow;
    lastRetransmits = retrNow;
    report.residualArq = tracked;
    report.residualBacklog = backlog;
    if (cleanRun >= stableTicks) {
      report.quiescent = true;
      report.clean = true;
      break;
    }
    // Residual verdict needs a longer stability window: capped-backoff ARQ
    // retries toward an unreachable island recur every few seconds, and the
    // sink must be shown stable *across* those recurrences, not between them.
    if (sinkStableRun >= 2 * stableTicks) {
      report.quiescent = true;
      break;
    }
  }
  report.at = cluster_->sim().now();
  return report;
}

ScenarioResult Scenario::collect() {
  ScenarioResult result;
  const SimTime now = cluster_->sim().now();
  result.measuredSeconds = toSeconds(now - window_start_);
  result.avgDelayMs = sink().delays().mean();
  result.p99DelayMs = sink().delays().quantile(0.99);
  result.maxDelayMs = sink().delays().max();
  result.sinkReceived = sink().receivedCount();
  result.sourceGenerated = source().generatedCount();
  result.traffic = cluster_->network().snapshot() - traffic_baseline_;

  // Average CPU over the machines carrying failure load (or all primaries
  // when no failures are injected).
  std::vector<MachineId> loadSample = loaded_machines_;
  if (loadSample.empty()) {
    const int numSubjobs =
        (params_.numPes + params_.pesPerSubjob - 1) / params_.pesPerSubjob;
    for (int i = 1; i < numSubjobs; ++i) {
      loadSample.push_back(static_cast<MachineId>(i));
    }
  }
  double loadTotal = 0.0;
  for (MachineId m : loadSample) {
    const double integral =
        cluster_->machine(m).loadIntegral() -
        load_integral_baseline_[static_cast<std::size_t>(m)];
    loadTotal += integral / static_cast<double>(now - window_start_);
  }
  result.avgCpuLoad =
      loadSample.empty() ? 0.0
                         : loadTotal / static_cast<double>(loadSample.size());

  result.delaySplit =
      splitDelaysByWindows(sink().series(), allFailureWindows(), window_start_);

  attributeFailureStarts();
  for (auto& c : coordinators_) {
    result.recovery.addAll(c->recoveries());
    result.switchovers += c->switchovers();
    result.rollbacks += c->rollbacks();
    result.promotions += c->promotions();
    result.gray.flapsDetected += c->flapsDetected();
    result.gray.quarantines += c->quarantines();
    result.gray.readmissions += c->readmissions();
    result.state += c->stateTelemetry();
    if (auto* hybrid = dynamic_cast<HybridCoordinator*>(c.get())) {
      result.elementsToStalledPrimary += hybrid->elementsToStalledPrimary();
      result.stateReadElements += hybrid->stateReadElements();
      result.placement.domainLosses += hybrid->domainLosses();
      result.placement.reprovisions += hybrid->reprovisions();
      result.placement.reprovisionRetries += hybrid->reprovisionRetries();
      result.placement.standbyRedeploys += hybrid->standbyRedeploys();
    }
  }
  if (planner_ != nullptr) result.placement += planner_->telemetry();
  if (membership_ != nullptr) {
    membership_->telemetry().rosterSize = membership_->roster().size();
    result.membership += membership_->telemetry();
  }
  for (const AccrualDetector* detector : accrual_detectors_) {
    result.gray.suspicionCrossings += detector->suspicionCrossings();
  }
  if (injector_ != nullptr) {
    result.gray.slowdownsApplied = injector_->stats().slowdownsApplied;
    result.gray.slowdownDelays = injector_->stats().slowdownDelays;
  }

  for (const auto& inst : runtime_->allInstances()) {
    for (std::size_t i = 0; i < inst->peCount(); ++i) {
      result.gapsObserved += inst->pe(i).input().gapsObserved();
      result.duplicatesDropped += inst->pe(i).input().duplicatesDropped();
      result.outOfOrderDropped += inst->pe(i).input().outOfOrderDropped();
      result.elementsShed += inst->pe(i).input().elementsShed();
    }
  }
  result.gapsObserved += sink().input().gapsObserved();
  result.duplicatesDropped += sink().input().duplicatesDropped();
  result.outOfOrderDropped += sink().input().outOfOrderDropped();

  if (flow_ != nullptr) {
    flow_->flushShedIntervals();
    const flow::FlowStats& fs = flow_->stats();
    result.flow.pauses = fs.pauses;
    result.flow.resumes = fs.resumes;
    result.flow.shedIntervals = fs.shedIntervals;
    result.flow.elementsShedAccounted = fs.elementsShedAccounted;
    result.flow.sourcePausedAtEnd = flow_->sourcePaused();
  }
  if (const ReliableDelivery* arq = cluster_->network().reliable()) {
    result.flow.arqParked = arq->stats().parked;
    result.flow.arqUnparked = arq->stats().unparked;
    result.flow.arqParkedEvicted = arq->stats().parkedEvicted;
    result.flow.arqSuperseded = arq->stats().superseded;
    result.flow.arqPeakTracked = arq->peakTracked();
  }
  return result;
}

ScenarioResult Scenario::runAll() {
  build();
  warmup();
  if (params_.failureFraction > 0) startFailures();
  run(params_.duration);
  return collect();
}

std::vector<std::pair<SimTime, SimTime>> Scenario::allFailureWindows() const {
  std::vector<std::vector<std::pair<SimTime, SimTime>>> lists;
  for (const auto& gen : load_generators_) lists.push_back(gen->spikes());
  return mergeWindows(std::move(lists));
}

void Scenario::attributeFailureStarts() {
  const auto windows = allFailureWindows();
  for (auto& c : coordinators_) {
    for (auto& timeline : c->mutableRecoveries()) {
      if (timeline.detectedAt == kTimeNever) continue;
      SimTime best = kTimeNever;
      for (const auto& [start, end] : windows) {
        if (start <= timeline.detectedAt &&
            (best == kTimeNever || start > best)) {
          best = start;
        }
      }
      if (best != kTimeNever) timeline.failureStart = best;
    }
  }
}

}  // namespace streamha
