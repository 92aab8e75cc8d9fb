#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "checkpoint/manager.hpp"
#include "checkpoint/store.hpp"
#include "detect/heartbeat.hpp"
#include "exp/sweep.hpp"
#include "harness/chaos_harness.hpp"
#include "net/reliable.hpp"
#include "trace/export.hpp"

namespace perfbench {

using namespace streamha;

bool parseWorkload(const std::string& name, Workload& out) {
  for (Workload w :
       {Workload::kDataplane, Workload::kControl, Workload::kChaos}) {
    if (name == workloadName(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kDataplane: return "hybrid_dataplane";
    case Workload::kControl: return "hybrid_control";
    case Workload::kChaos: return "chaos_sweep";
  }
  return "?";
}

bool parseTamper(const std::string& name, Tamper& out) {
  if (name == "none") out = Tamper::kNone;
  else if (name == "sink") out = Tamper::kSinkCount;
  else if (name == "digest") out = Tamper::kDigest;
  else if (name == "warmup") out = Tamper::kWarmup;
  else return false;
  return true;
}

// Simulated sizes. One repetition of each takes about one wall second on a
// 4-core x86 container, so a timed run holds a few dozen repetitions; each
// repetition has over a hundred slices, so its 90th percentile has at least
// ten samples beyond it.
Sizing sizingFor(Workload w, bool smoke) {
  Sizing s;
  switch (w) {
    case Workload::kDataplane:
      s.duration = (smoke ? 1 : 6) * kSecond;
      s.slice = 50 * kMillisecond;
      break;
    case Workload::kControl:
      s.duration = (smoke ? 5 : 30) * kSecond;
      s.slice = 250 * kMillisecond;
      break;
    case Workload::kChaos:
      s.duration = 10 * kSecond;
      s.slice = 100 * kMillisecond;
      s.chaosSeeds = smoke ? 2 : 12;
      break;
  }
  return s;
}

ScenarioParams paramsFor(Workload w, std::uint64_t seed, const Sizing& sizing,
                         bool traced) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.seed = seed;
  p.duration = sizing.duration;
  p.trace.enabled = traced;
  // Per-message trace events would add an event per message; the network's
  // own counters carry the message counts instead.
  p.trace.messageEvents = false;
  // Spikes arrive on a fixed period rather than as a Poisson process, so
  // every seed carries the same spike load: the seed moves element arrivals
  // and control-plane timing, and run-to-run differences in wall time are
  // the host's, not the workload's.
  p.regularFailures = true;
  switch (w) {
    case Workload::kDataplane:
      // Paper Section V-A chain under a data rate that keeps the protected
      // primaries busy: nearly all simulator work is the data path.
      p.numPes = 8;
      p.pesPerSubjob = 2;
      p.protectedSubjobs = {1, 2, 3};
      p.peWorkUs = 15.0;
      p.dataRatePerSec = 20000.0;
      p.failureFraction = 0.3;
      p.failureDuration = 1 * kSecond;
      p.failureMagnitude = 0.97;
      p.failurePlacement = ScenarioParams::FailurePlacement::kAllButFirst;
      break;
    case Workload::kControl:
      // Long chain, light data, fast heartbeats and checkpoints, standbys
      // multiplexed on a small rack-aware pool with membership beacons: the
      // event mix is dominated by the HA control path.
      p.numPes = 16;
      p.pesPerSubjob = 2;
      p.protectedSubjobs = {1, 2, 3, 4, 5, 6, 7};
      p.peWorkUs = 60.0;
      p.dataRatePerSec = 1000.0;
      p.heartbeatInterval = 20 * kMillisecond;
      p.checkpointInterval = 20 * kMillisecond;
      p.failureFraction = 0.3;
      p.failureDuration = 300 * kMillisecond;
      p.failurePlacement = ScenarioParams::FailurePlacement::kAllButFirst;
      p.placement.enabled = true;
      p.placement.topology.racks = 4;
      p.placement.poolMachines = 4;
      p.membership.enabled = true;
      break;
    case Workload::kChaos: {
      // One seed of the substrate chaos sweep (bench/micro_substrate.cpp):
      // loss, duplicates, jitter, a healed partition and a restarting crash.
      p.protectedSubjobs = {1, 2};
      p.provisionSpares = true;
      p.failStopAfter = 3 * kSecond;
      harness::ChaosProfile profile;
      profile.maxDuplicateProb = 0.05;
      profile.maxDelayProb = 0.1;
      profile.restartCrashed = true;
      profile.faultsFrom = 3 * kSecond;
      profile.faultsUntil = 8 * kSecond;
      p.faults = harness::makeChaosPlan(p, profile, seed).schedule;
      p.faultSeedSalt = seed;
      break;
    }
  }
  return p;
}

void mergeLayers(Layers& into, const Layers& add) {
  const auto isMax = [](const std::string& key) {
    for (const char* suffix : {"_peak", "_max", "peak_tracked",
                               "slot_capacity", "roster_size", "machines"}) {
      const std::string s(suffix);
      if (key.size() >= s.size() &&
          key.compare(key.size() - s.size(), s.size(), s) == 0) {
        return true;
      }
    }
    return false;
  };
  for (const auto& [key, value] : add) {
    auto it = into.find(key);
    if (it == into.end()) {
      into[key] = value;
    } else if (isMax(key)) {
      it->second = std::max(it->second, value);
    } else {
      it->second += value;
    }
  }
}

std::string digestOf(const std::string& fingerprint) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : fingerprint) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

/// Trace event groups, as the section comments of trace/event.hpp draw them:
/// each group starts at its first event type and runs to the next group.
struct TraceGroup {
  TraceEventType first;
  const char* name;
};
constexpr TraceGroup kTraceGroups[] = {
    {TraceEventType::kMessageSent, "data_plane"},
    {TraceEventType::kHeartbeatMiss, "detection"},
    {TraceEventType::kCheckpointBegin, "checkpointing"},
    {TraceEventType::kSwitchoverBegin, "recovery"},
    {TraceEventType::kMachineCrash, "substrate"},
    {TraceEventType::kMessageDropped, "faults"},
    {TraceEventType::kFlowPause, "flow"},
    {TraceEventType::kSlowdownBegin, "gray"},
    {TraceEventType::kDeltaShip, "state"},
    {TraceEventType::kDomainLoss, "placement"},
    {TraceEventType::kMachineJoined, "membership"},
};

const char* traceGroupOf(TraceEventType type) {
  const char* name = kTraceGroups[0].name;
  for (const TraceGroup& g : kTraceGroups) {
    if (type >= g.first) name = g.name;
  }
  return name;
}

/// Samples the depths the end-of-run accessors cannot give (peaks) and keeps
/// every checkpoint manager, store and detector the coordinators ever held:
/// the coordinators retire replaced components without destroying them, so
/// their counters stay readable until the scenario dies.
class Sampler {
 public:
  explicit Sampler(Scenario& s) : s_(s) {}

  void sample() {
    pending_peak_ = std::max<double>(
        pending_peak_, static_cast<double>(s_.cluster().sim().pendingEvents()));
    for (std::size_t m = 0; m < s_.machineCount(); ++m) {
      data_queue_peak_ = std::max<double>(
          data_queue_peak_,
          static_cast<double>(
              s_.cluster().machine(static_cast<MachineId>(m)).dataQueueLength()));
    }
    double backlog =
        static_cast<double>(s_.source().output().unackedBacklog());
    for (const auto& inst : s_.runtime().allInstances()) {
      for (std::size_t i = 0; i < inst->peCount(); ++i) {
        for (std::size_t p = 0; p < inst->pe(i).portCount(); ++p) {
          backlog = std::max<double>(
              backlog,
              static_cast<double>(inst->pe(i).output(p).unackedBacklog()));
        }
      }
    }
    backlog_peak_ = std::max(backlog_peak_, backlog);
    for (HaCoordinator* c : s_.coordinators()) {
      if (c->checkpointManager() != nullptr) cms_.insert(c->checkpointManager());
      if (c->store() != nullptr) stores_.insert(c->store());
      if (c->detector() != nullptr) detectors_.insert(c->detector());
    }
  }

  void fill(Layers& l) const {
    l["sim.pending_peak"] = pending_peak_;
    l["cluster.data_queue_peak"] = data_queue_peak_;
    l["stream.output_backlog_peak"] = backlog_peak_;
    double checkpoints = 0, bytes = 0, writes = 0, stale = 0, pings = 0;
    for (const CheckpointManager* cm : cms_) {
      checkpoints += static_cast<double>(cm->stats().checkpoints);
      bytes += static_cast<double>(cm->stats().bytes);
    }
    for (const StateStore* st : stores_) {
      writes += static_cast<double>(st->writeCount());
      stale += static_cast<double>(st->staleWrites());
    }
    for (FailureDetector* d : detectors_) {
      if (auto* hb = dynamic_cast<HeartbeatDetector*>(d)) {
        pings += static_cast<double>(hb->pingsSent());
      }
    }
    l["checkpoint.count"] = checkpoints;
    l["checkpoint.bytes"] = bytes;
    l["store.writes"] = writes;
    l["store.stale_writes"] = stale;
    l["detect.pings"] = pings;
  }

 private:
  Scenario& s_;
  double pending_peak_ = 0, data_queue_peak_ = 0, backlog_peak_ = 0;
  std::set<CheckpointManager*> cms_;
  std::set<StateStore*> stores_;
  std::set<FailureDetector*> detectors_;
};

void collectLayers(Scenario& s, const ScenarioResult& r, const Sampler& sampler,
                   const UnitResult& u, Layers& l) {
  Simulator& sim = s.cluster().sim();
  const Network& net = s.cluster().network();
  sampler.fill(l);
  l["sim.events"] = static_cast<double>(sim.firedEvents());
  l["sim.slot_capacity"] = static_cast<double>(sim.slotCapacity());
  l["sim.confirmed_elements"] = static_cast<double>(u.confirmed);

  const Network::Counters& c = net.counters();
  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    l[std::string("net.msgs.") + toString(kind)] =
        static_cast<double>(c.messagesOf(kind));
    l[std::string("net.bytes.") + toString(kind)] =
        static_cast<double>(c.bytesOf(kind));
  }
  l["net.elements.data"] = static_cast<double>(c.elementsOf(MsgKind::kData));
  const ReliableDelivery* arq = net.reliable();
  l["net.arq.accepted"] =
      arq != nullptr ? static_cast<double>(arq->stats().accepted) : 0.0;
  l["net.arq.retransmits"] =
      arq != nullptr ? static_cast<double>(arq->stats().retransmits) : 0.0;
  l["net.arq.peak_tracked"] =
      arq != nullptr ? static_cast<double>(arq->peakTracked()) : 0.0;

  // busyIntegral() settles the machine's lazy integrals, so it is read only
  // here, after the result and its digest are final.
  double busyMax = 0.0;
  const double now = static_cast<double>(sim.now());
  for (std::size_t m = 0; m < s.machineCount(); ++m) {
    busyMax = std::max(
        busyMax,
        s.cluster().machine(static_cast<MachineId>(m)).busyIntegral() / now);
  }
  l["cluster.busy_frac_max"] = busyMax;
  l["cluster.machines"] = static_cast<double>(s.machineCount());

  double processed = 0.0;
  int connections = s.source().output().connectionCount();
  for (const auto& inst : s.runtime().allInstances()) {
    for (std::size_t i = 0; i < inst->peCount(); ++i) {
      processed += static_cast<double>(inst->pe(i).processedCount());
      for (std::size_t p = 0; p < inst->pe(i).portCount(); ++p) {
        connections =
            std::max(connections, inst->pe(i).output(p).connectionCount());
      }
    }
  }
  l["stream.pe_processed"] = processed;
  l["stream.queue_connections_max"] = static_cast<double>(connections);
  l["stream.duplicates_dropped"] = static_cast<double>(r.duplicatesDropped);
  l["stream.out_of_order_dropped"] = static_cast<double>(r.outOfOrderDropped);

  l["ha.switchovers"] = static_cast<double>(r.switchovers);
  l["ha.rollbacks"] = static_cast<double>(r.rollbacks);
  l["ha.promotions"] = static_cast<double>(r.promotions);
  l["ha.state_read_elements"] = static_cast<double>(r.stateReadElements);
  l["ha.elements_to_stalled_primary"] =
      static_cast<double>(r.elementsToStalledPrimary);
  l["place.planner_choices"] = static_cast<double>(r.placement.plannerChoices);
  l["place.quarantine_rejections"] =
      static_cast<double>(r.placement.quarantineRejections);
  l["membership.beacons_sent"] = static_cast<double>(r.membership.beaconsSent);
  l["membership.roster_size"] = static_cast<double>(r.membership.rosterSize);

  FaultInjector::Stats faults;
  if (s.faultInjector() != nullptr) faults = s.faultInjector()->stats();
  l["fault.drops"] = static_cast<double>(faults.totalDrops());
  l["fault.duplicates"] = static_cast<double>(faults.duplicates);
  l["fault.delayed"] = static_cast<double>(faults.delayed);
  l["fault.crashes"] = static_cast<double>(faults.crashes);

  l["harness.clean_drains"] = u.cleanDrain ? 1.0 : 0.0;

  if (s.trace() != nullptr) {
    for (const TraceGroup& g : kTraceGroups) {
      l[std::string("trace.events.") + g.name] = 0.0;
    }
    for (const TraceEvent& ev : s.trace()->events()) {
      l[std::string("trace.events.") + traceGroupOf(ev.type)] += 1.0;
    }
  }
}

}  // namespace

UnitResult runUnit(const ScenarioParams& params, SimDuration slice,
                   Tamper tamper, SpanLog& spans, std::int64_t parentSpan,
                   bool sliceSpans) {
  UnitResult u;
  u.seed = params.seed;
  const std::int64_t run =
      spans.begin("scenario seed=" + std::to_string(params.seed), parentSpan);

  std::int64_t phase = spans.begin("setup", run);
  Scenario s(params);
  const std::int64_t build = spans.begin("build", phase);
  s.build();
  u.buildS = spans.end(build);
  // The harness order: never warmup() before the exactly-once oracle -- it
  // resets the sink's count but not the source's. The warmup tamper proves
  // the oracle catches exactly that.
  if (tamper == Tamper::kWarmup) {
    s.warmup();
  } else {
    s.start();
  }
  spans.end(phase);
  if (s.params().failureFraction > 0) s.startFailures();

  Sampler sampler(s);
  phase = spans.begin("run", run);
  Simulator& sim = s.cluster().sim();
  const SimTime end = sim.now() + params.duration;
  while (sim.now() < end) {
    const std::int64_t sl = sliceSpans ? spans.begin("slice", phase) : -1;
    const std::int64_t startNs = spans.nowNs();
    s.run(std::min<SimDuration>(slice, end - sim.now()));
    u.sliceMs.push_back(static_cast<double>(spans.nowNs() - startNs) * 1e-6);
    if (sl >= 0) spans.end(sl);
    sampler.sample();
  }
  u.runS = spans.end(phase);

  phase = spans.begin("drainQuiescent", run);
  const QuiescenceReport quiet = s.drainQuiescent();
  u.drainS = spans.end(phase);
  u.cleanDrain = quiet.clean;
  sampler.sample();

  phase = spans.begin("collect", run);
  ScenarioResult r = s.collect();
  u.collectS = spans.end(phase);
  if (tamper == Tamper::kSinkCount) ++r.sinkReceived;

  phase = spans.begin("oracle", run);
  const harness::OracleReport oracle = harness::checkExactlyOnceInOrder(s, r);
  // The result must also agree with what the oracle saw: a ScenarioResult
  // whose sink or source count differs from the live counters is wrong.
  u.oracleOk = oracle.ok && r.sinkReceived == oracle.delivered &&
               r.sourceGenerated == oracle.generated;
  u.verdict = oracle.summary();
  if (oracle.ok && !u.oracleOk) {
    u.verdict += "\n  VIOLATION: result counts sink=" +
                 std::to_string(r.sinkReceived) + " generated=" +
                 std::to_string(r.sourceGenerated) +
                 " disagree with the oracle";
  }
  u.confirmed = u.oracleOk ? oracle.delivered : 0;
  u.events = sim.firedEvents();
  u.fingerprint = fingerprintResult(r);
  u.oracleS = spans.end(phase);
  u.totalS = spans.end(run);

  collectLayers(s, r, sampler, u, u.layers);
  if (s.trace() != nullptr) {
    const std::int64_t ex = spans.begin("trace export", parentSpan);
    std::ostringstream out;
    writeJsonl(s.trace()->events(), out);
    u.exportS = spans.end(ex);
  }
  return u;
}

}  // namespace perfbench
