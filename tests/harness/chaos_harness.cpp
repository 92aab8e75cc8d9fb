#include "harness/chaos_harness.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "exp/sweep.hpp"
#include "trace/export.hpp"

namespace streamha {
namespace harness {

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

std::string OracleReport::summary() const {
  std::ostringstream out;
  out << "generated=" << generated << " delivered=" << delivered;
  if (ok) {
    out << " (exactly-once, in-order)";
  } else {
    for (const auto& v : violations) out << "\n  VIOLATION: " << v;
  }
  return out.str();
}

OracleReport checkExactlyOnceInOrder(Scenario& s, const ScenarioResult& r) {
  OracleReport rep;
  rep.generated = s.source().generatedCount();
  rep.delivered = s.sink().receivedCount();
  auto fail = [&rep](std::string msg) {
    rep.ok = false;
    rep.violations.push_back(std::move(msg));
  };

  // No input queue anywhere may ever have accepted a sequence jump: an
  // accepted jump is a silently lost element.
  if (r.gapsObserved != 0) {
    fail("an input queue accepted a sequence jump (gapsObserved=" +
         std::to_string(r.gapsObserved) + ")");
  }
  // Shedding forfeits exactly-once by design; a chaos run must not shed.
  if (r.elementsShed != 0) {
    fail("elements were shed (" + std::to_string(r.elementsShed) + ")");
  }

  // The sink's contiguous watermark must cover every generated element
  // (selectivity-1 chain: each source element yields exactly one sink
  // element; summing generalizes to multi-stream sinks of such chains).
  std::uint64_t contiguous = 0;
  for (StreamId stream : s.runtime().spec().sinkStreams) {
    contiguous += s.sink().highestSeq(stream);
  }
  if (contiguous != rep.generated) {
    fail("sink in-order watermark " + std::to_string(contiguous) +
         " != generated " + std::to_string(rep.generated) +
         (contiguous < rep.generated ? " (lost elements)"
                                     : " (phantom elements)"));
  }
  // ... and it must have accepted each exactly once.
  if (rep.delivered != rep.generated) {
    fail("sink accepted " + std::to_string(rep.delivered) + " of " +
         std::to_string(rep.generated) + " generated elements");
  }
  return rep;
}

OracleReport checkPrefixInOrderBoundedLoss(Scenario& s,
                                           const ScenarioResult& r,
                                           const BoundedLossParams& loss) {
  OracleReport rep;
  rep.generated = s.source().generatedCount();
  rep.delivered = s.sink().receivedCount();
  auto fail = [&rep](std::string msg) {
    rep.ok = false;
    rep.violations.push_back(std::move(msg));
  };

  // In-order acceptance everywhere still holds under shedding: a shed element
  // advances the watermark *then* drops, so no queue ever accepts a jump.
  if (r.gapsObserved != 0) {
    fail("an input queue accepted a sequence jump (gapsObserved=" +
         std::to_string(r.gapsObserved) + ")");
  }
  // Each PE renumbers its output (selectivity-1 chain), so whatever reaches
  // the sink must still be a gapless duplicate-free prefix-per-stream: the
  // accepted count and the contiguous watermark must agree exactly.
  std::uint64_t contiguous = 0;
  for (StreamId stream : s.runtime().spec().sinkStreams) {
    contiguous += s.sink().highestSeq(stream);
  }
  if (contiguous != rep.delivered) {
    fail("sink in-order watermark " + std::to_string(contiguous) +
         " != accepted " + std::to_string(rep.delivered) +
         " (out-of-prefix acceptance)");
  }
  if (rep.delivered > rep.generated) {
    fail("sink accepted " + std::to_string(rep.delivered) +
         " > generated " + std::to_string(rep.generated) +
         " (phantom elements)");
  }
  const std::uint64_t lost =
      rep.generated > rep.delivered ? rep.generated - rep.delivered : 0;
  // Every lost element must be accounted for by a shed counter somewhere.
  // Inequality, not equality: a rollback can re-deliver elements that were
  // shed on the failed path, so the realized loss may be *smaller* than the
  // shed count -- but never larger.
  if (loss.requireAccountedLoss && lost > r.elementsShed) {
    fail("lost " + std::to_string(lost) + " elements but only " +
         std::to_string(r.elementsShed) +
         " were shed (unaccounted loss)");
  }
  if (rep.generated > 0) {
    const double fraction =
        static_cast<double>(lost) / static_cast<double>(rep.generated);
    if (fraction > loss.maxLossFraction) {
      std::ostringstream msg;
      msg << "loss fraction " << fraction << " (" << lost << "/"
          << rep.generated << ") exceeds bound " << loss.maxLossFraction;
      fail(msg.str());
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

ChaosPlan makeChaosPlan(const ScenarioParams& params,
                        const ChaosProfile& profile, std::uint64_t seed) {
  const ScenarioLayout layout = Scenario::layoutFor(params);
  Rng rng(stableHash("chaos-plan") ^ (seed * 0x9E3779B97F4A7C15ULL + seed));
  ChaosPlan plan;

  // Random loss / duplication / jitter on every link. Every message kind is
  // lossy by default (the control plane rides the ARQ layer); profiles can
  // narrow the mask for targeted sweeps.
  LinkFaultRule rule;
  rule.kinds = profile.lossyKinds;
  rule.dropProb = rng.uniformReal(0.005, profile.maxLossProb);
  rule.duplicateProb = rng.uniformReal(0.0, profile.maxDuplicateProb);
  rule.delayProb = rng.uniformReal(0.0, profile.maxDelayProb);
  rule.maxExtraDelay = profile.maxExtraDelay;
  rule.from = profile.faultsFrom;
  rule.until = profile.faultsUntil;
  plan.schedule.links.push_back(rule);

  // Healed partitions between data-plane machines. Machine 0 hosts the
  // source and mid-run (re)wiring retries until acked, so partitions among
  // {primaries 1.., sink} heal into full recovery. With partitionCount > 1
  // the windows may overlap (correlated outages).
  std::vector<MachineId> dataPlane;
  for (int sj = 1; sj < layout.numSubjobs; ++sj) {
    dataPlane.push_back(layout.primaryOf(sj));
  }
  dataPlane.push_back(layout.sinkMachine);
  if (dataPlane.size() >= 2) {
    for (int i = 0; i < profile.partitionCount; ++i) {
      const auto a = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(dataPlane.size()) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(dataPlane.size()) - 2));
      if (b >= a) ++b;
      PartitionSpec part;
      part.islandA = {dataPlane[a]};
      part.islandB = {dataPlane[b]};
      part.beginAt = rng.uniformInt(
          profile.faultsFrom, profile.faultsUntil - profile.maxPartition);
      part.healAt = part.beginAt +
                    rng.uniformInt(profile.minPartition, profile.maxPartition);
      plan.schedule.partitions.push_back(part);
    }
  }

  // One crash; the target cycles over the protected primaries plus one
  // standby so every failover role gets exercised across a seed sweep.
  // Machine 0 is never crashed (it hosts the source).
  if (profile.withCrash) {
    std::vector<std::pair<MachineId, bool>> targets;
    for (SubjobId sj : params.protectedSubjobs) {
      const MachineId m = layout.primaryOf(sj);
      if (m != 0) targets.emplace_back(m, true);
    }
    for (SubjobId sj : params.protectedSubjobs) {
      const MachineId standby =
          layout.standbyOf[static_cast<std::size_t>(sj)];
      if (standby != kNoMachine) {
        targets.emplace_back(standby, false);
        break;
      }
    }
    if (!targets.empty()) {
      const auto& [machine, isPrimary] =
          targets[static_cast<std::size_t>(seed % targets.size())];
      CrashSpec crash;
      crash.machine = machine;
      crash.crashAt =
          rng.uniformInt(profile.faultsFrom, profile.faultsUntil);
      if (profile.restartCrashed) {
        crash.restartAt =
            crash.crashAt + rng.uniformInt(1 * kSecond, 4 * kSecond);
      }
      plan.schedule.crashes.push_back(crash);
      plan.crashTarget = machine;
      plan.crashedProtectedPrimary = isPrimary;
    }
  }

  // Correlated burst: take down a protected primary and its standby in
  // staggered sequence, both restarting burstDownFor later. Exercises the
  // nobody-left-to-promote window (detector dark, promotion impossible) and
  // the convergence path once both machines come back.
  if (profile.withBurst && !params.protectedSubjobs.empty()) {
    const std::size_t pick =
        static_cast<std::size_t>(seed % params.protectedSubjobs.size());
    const SubjobId sj = params.protectedSubjobs[pick];
    const MachineId primary = layout.primaryOf(sj);
    const MachineId standby = layout.standbyOf[static_cast<std::size_t>(sj)];
    if (primary != 0 && standby != kNoMachine) {
      CorrelatedBurstSpec burst;
      burst.machines = {primary, standby};
      const SimTime latestBegin =
          profile.faultsUntil - profile.burstDownFor - profile.burstStagger;
      burst.beginAt = rng.uniformInt(
          profile.faultsFrom, std::max<SimTime>(profile.faultsFrom + 1,
                                                latestBegin));
      burst.stagger = profile.burstStagger;
      burst.downFor = profile.burstDownFor;
      plan.schedule.bursts.push_back(burst);
    }
  }

  // Slowdown mix (gray failures): degrade one protected primary with CPU
  // dilation plus heartbeat delay jitter over one window. RNG draws are gated
  // behind the flag so profiles without slowdowns generate byte-identical
  // plans to pre-slowdown builds.
  if (profile.withSlowdown && !params.protectedSubjobs.empty()) {
    std::vector<MachineId> candidates;
    for (SubjobId sj : params.protectedSubjobs) {
      const MachineId m = layout.primaryOf(sj);
      if (m != 0) candidates.push_back(m);
    }
    if (!candidates.empty()) {
      const MachineId victim =
          candidates[static_cast<std::size_t>(seed % candidates.size())];
      const SimDuration length =
          rng.uniformInt(profile.minSlowdown, profile.maxSlowdown);
      const SimTime latestBegin = profile.faultsUntil > length
                                      ? profile.faultsUntil - length
                                      : profile.faultsFrom + 1;
      const SimTime begin = rng.uniformInt(
          profile.faultsFrom,
          std::max<SimTime>(profile.faultsFrom + 1, latestBegin));

      SlowdownSpec dilate;
      dilate.kind = SlowdownKind::kCpuDilation;
      dilate.machine = victim;
      dilate.severity =
          rng.uniformReal(profile.minDilation, profile.maxDilation);
      dilate.beginAt = begin;
      dilate.endAt = begin + length;
      plan.schedule.slowdowns.push_back(dilate);

      SlowdownSpec jitter;
      jitter.kind = SlowdownKind::kHeartbeatJitter;
      jitter.machine = victim;
      jitter.delayProb =
          rng.uniformReal(profile.minJitterProb, profile.maxJitterProb);
      jitter.maxExtraDelay =
          rng.uniformInt(profile.minJitterDelay, profile.maxJitterDelay);
      jitter.beginAt = begin;
      jitter.endAt = begin + length;
      plan.schedule.slowdowns.push_back(jitter);

      plan.slowdownTarget = victim;
      plan.slowdownFrom = begin;
      plan.slowdownUntil = begin + length;
    }
  }

  // Domain kill (place/): crash EVERY machine of one sampled rack in one
  // burst -- the correlated loss that takes a primary and a same-rack standby
  // together. The target rack cycles over the racks hosting protected
  // primaries and their standbys (seed-picked, no RNG draw, matching the
  // crash-target discipline above); racks hosting the source, the sink or an
  // unprotected primary are never candidates, since no coordinator could
  // recover their permanent loss. The single RNG draw is gated behind the
  // flag so existing profiles generate byte-identical plans.
  if (profile.withDomainKill && params.placement.enabled &&
      params.placement.topology.enabled() &&
      !params.protectedSubjobs.empty()) {
    const DomainTopology& topology = params.placement.topology;
    std::set<int> excluded;
    excluded.insert(topology.labelOf(0).rack);
    excluded.insert(topology.labelOf(layout.sinkMachine).rack);
    const std::set<SubjobId> prot(params.protectedSubjobs.begin(),
                                  params.protectedSubjobs.end());
    for (int sj = 0; sj < layout.numSubjobs; ++sj) {
      if (prot.count(sj) == 0) {
        excluded.insert(topology.labelOf(layout.primaryOf(sj)).rack);
      }
    }
    std::vector<int> candidates;
    const auto addCandidate = [&](MachineId machine) {
      if (machine == kNoMachine) return;
      const int rack = topology.labelOf(machine).rack;
      if (excluded.count(rack) != 0) return;
      if (std::find(candidates.begin(), candidates.end(), rack) ==
          candidates.end()) {
        candidates.push_back(rack);
      }
    };
    for (SubjobId sj : params.protectedSubjobs) {
      addCandidate(layout.primaryOf(sj));
      addCandidate(layout.standbyOf[static_cast<std::size_t>(sj)]);
    }
    if (!candidates.empty()) {
      const int rack =
          candidates[static_cast<std::size_t>(seed % candidates.size())];
      CorrelatedBurstSpec burst;
      burst.machines = topology.rackMembers(
          rack, static_cast<int>(layout.machineCount));
      burst.beginAt =
          rng.uniformInt(profile.faultsFrom, profile.faultsUntil);
      burst.stagger = profile.domainKillStagger;
      burst.downFor = profile.domainKillDownFor;
      plan.schedule.bursts.push_back(burst);
      plan.killedRack = rack;
      plan.domainKillMachines = burst.machines;
    }
  }

  // Churn storm (membership/): joins start latent machines' beacons mid-run;
  // retires and silences hit pool machines only -- never primary hosts, the
  // source or the sink -- so a roster transition can cost at most a standby
  // copy (absorbed by the redeploy path), while the crashes above keep
  // covering primary loss. All RNG draws are gated behind the flag so
  // existing profiles generate byte-identical plans.
  if (profile.withChurn && params.membership.enabled) {
    const auto churnAt = [&]() -> SimTime {
      return rng.uniformInt(profile.faultsFrom, profile.faultsUntil);
    };
    const auto pushChurn = [&plan](ChurnKind kind, MachineId machine,
                                   SimTime at) {
      ChurnSpec spec;
      spec.kind = kind;
      spec.machine = machine;
      spec.at = at;
      plan.schedule.churn.push_back(spec);
    };
    const int joins =
        std::min(profile.churnJoins,
                 static_cast<int>(layout.latentMachines.size()));
    for (int i = 0; i < joins; ++i) {
      const MachineId m = layout.latentMachines[static_cast<std::size_t>(i)];
      pushChurn(ChurnKind::kJoin, m, churnAt());
      plan.churnJoined.push_back(m);
    }
    std::vector<MachineId> leavable = layout.poolMachines;
    const auto drawLeavable = [&]() -> MachineId {
      const auto idx = static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(leavable.size()) - 1));
      const MachineId m = leavable[idx];
      leavable.erase(leavable.begin() + static_cast<std::ptrdiff_t>(idx));
      return m;
    };
    for (int i = 0; i < profile.churnRetires && !leavable.empty(); ++i) {
      const MachineId m = drawLeavable();
      pushChurn(ChurnKind::kRetire, m, churnAt());
      plan.churnRetired.push_back(m);
    }
    for (int i = 0; i < profile.churnSilences && !leavable.empty(); ++i) {
      const MachineId m = drawLeavable();
      pushChurn(ChurnKind::kSilence, m, churnAt());
      plan.churnSilenced.push_back(m);
    }
  }
  return plan;
}

ScenarioParams substrateProfileParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 10 * kSecond;
  p.seed = seed;
  ChaosProfile profile;
  profile.maxDuplicateProb = 0.05;
  profile.maxDelayProb = 0.1;
  profile.restartCrashed = true;
  profile.faultsFrom = 3 * kSecond;
  profile.faultsUntil = 8 * kSecond;
  p.faults = makeChaosPlan(p, profile, seed).schedule;
  p.faultSeedSalt = seed;
  return p;
}

ScenarioParams tracedChaosParams(std::uint64_t seed) {
  ScenarioParams p;
  p.mode = HaMode::kHybrid;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failStopAfter = 3 * kSecond;
  p.duration = 12 * kSecond;
  p.seed = seed;
  p.trace.enabled = true;
  ChaosProfile profile;
  profile.maxLossProb = 0.05;
  profile.maxDuplicateProb = 0.05;
  profile.maxDelayProb = 0.1;
  profile.restartCrashed = true;
  profile.faultsFrom = 3 * kSecond;
  profile.faultsUntil = 9 * kSecond;
  p.faults = makeChaosPlan(p, profile, seed).schedule;
  p.faultSeedSalt = seed;
  return p;
}

ChaosRunOpts tracedChaosOpts() {
  ChaosRunOpts opts;
  opts.quiescentDrain = false;
  opts.maxDrain = 12 * kSecond;
  opts.captureTrace = true;
  return opts;
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

ChaosOutcome runChaosScenario(ScenarioParams params, SimDuration drainGrace) {
  Scenario s(std::move(params));
  s.build();
  s.start();
  if (s.params().failureFraction > 0) s.startFailures();
  s.run(s.params().duration);
  s.drain(drainGrace);
  ChaosOutcome out;
  out.result = s.collect();
  out.oracle = checkExactlyOnceInOrder(s, out.result);
  if (s.faultInjector() != nullptr) out.faults = s.faultInjector()->stats();
  return out;
}

ChaosOutcome runChaosScenario(ScenarioParams params, const ChaosRunOpts& opts) {
  Scenario s(std::move(params));
  s.build();
  s.start();
  if (s.params().failureFraction > 0) s.startFailures();
  s.run(s.params().duration);
  ChaosOutcome out;
  if (opts.quiescentDrain) {
    out.quiescence =
        s.drainQuiescent(opts.maxDrain, opts.drainTick, opts.stableTicks);
  } else {
    s.drain(opts.maxDrain);
  }
  out.result = s.collect();
  out.oracle = opts.oracle == OracleMode::kBoundedLoss
                   ? checkPrefixInOrderBoundedLoss(s, out.result, opts.loss)
                   : checkExactlyOnceInOrder(s, out.result);
  if (s.faultInjector() != nullptr) out.faults = s.faultInjector()->stats();
  out.resultFingerprint = fingerprintResult(out.result);
  if (opts.captureTrace) out.trace = traceJsonl(s);
  return out;
}

std::string traceJsonl(Scenario& s) {
  if (s.trace() == nullptr) return {};
  std::ostringstream out;
  writeJsonl(s.trace()->events(), out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

std::size_t componentCount(const FaultSchedule& s) {
  return s.links.size() + s.partitions.size() + s.crashes.size() +
         s.bursts.size() + s.slowdowns.size() + s.churn.size();
}

/// The schedule with component `index` (in
/// links/partitions/crashes/bursts/slowdowns/churn order) removed.
FaultSchedule without(const FaultSchedule& s, std::size_t index) {
  FaultSchedule out = s;
  if (index < out.links.size()) {
    out.links.erase(out.links.begin() + static_cast<std::ptrdiff_t>(index));
    return out;
  }
  index -= out.links.size();
  if (index < out.partitions.size()) {
    out.partitions.erase(out.partitions.begin() +
                         static_cast<std::ptrdiff_t>(index));
    return out;
  }
  index -= out.partitions.size();
  if (index < out.crashes.size()) {
    out.crashes.erase(out.crashes.begin() +
                      static_cast<std::ptrdiff_t>(index));
    return out;
  }
  index -= out.crashes.size();
  if (index < out.bursts.size()) {
    out.bursts.erase(out.bursts.begin() + static_cast<std::ptrdiff_t>(index));
    return out;
  }
  index -= out.bursts.size();
  if (index < out.slowdowns.size()) {
    out.slowdowns.erase(out.slowdowns.begin() +
                        static_cast<std::ptrdiff_t>(index));
    return out;
  }
  index -= out.slowdowns.size();
  out.churn.erase(out.churn.begin() + static_cast<std::ptrdiff_t>(index));
  return out;
}

}  // namespace

FaultSchedule shrinkFailingSchedule(
    FaultSchedule schedule,
    const std::function<bool(const FaultSchedule&)>& stillFails,
    int maxRuns) {
  int runs = 0;
  bool shrunk = true;
  while (shrunk && runs < maxRuns) {
    shrunk = false;
    for (std::size_t i = 0; i < componentCount(schedule) && runs < maxRuns;
         ++i) {
      FaultSchedule candidate = without(schedule, i);
      ++runs;
      if (stillFails(candidate)) {
        schedule = std::move(candidate);
        shrunk = true;
        break;  // Restart the scan over the smaller schedule.
      }
    }
  }
  return schedule;
}

}  // namespace harness
}  // namespace streamha
