// The benchmark's three workloads and the oracle-checked execution of one
// scenario ("unit"): build -> start -> run in simulated-time slices ->
// drainQuiescent -> collect -> exactly-once oracle -> result digest.
//
// Everything here drives the simulator from outside, through Scenario, the
// chaos harness and the modules' public accessors. Nothing in the simulator is
// modified or subclassed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kDataplane, kControl, kChaos };

bool parseWorkload(const std::string& name, Workload& out);
const char* workloadName(Workload w);

/// Simulated sizes of one repetition of a workload.
struct Sizing {
  streamha::SimDuration duration = 0;  ///< Simulated run() time per scenario.
  streamha::SimDuration slice = 0;     ///< Simulated time per timed slice.
  int chaosSeeds = 0;                  ///< Seeds per chaos sweep (chaos only).
};

/// `smoke` shrinks every simulated duration for the self-tests.
Sizing sizingFor(Workload w, bool smoke);

/// The scenario for one seed of `w`. For the chaos sweep this includes the
/// makeChaosPlan fault schedule of that seed.
streamha::ScenarioParams paramsFor(Workload w, std::uint64_t seed,
                                   const Sizing& sizing, bool traced);

/// Deliberate corruption for the benchmark's negative self-tests.
enum class Tamper {
  kNone,
  kSinkCount,  ///< Report one more sink element than the sink accepted.
  kDigest,     ///< Perturb the digest of every repeat after the first.
  kWarmup,     ///< Call Scenario::warmup() (resets the sink count) first.
};

bool parseTamper(const std::string& name, Tamper& out);

/// Per-layer values of one unit. Counts are deterministic per seed.
using Layers = std::map<std::string, double>;

/// Merge `add` into `into` across chaos seeds: peaks and maxima take the
/// maximum, everything else sums.
void mergeLayers(Layers& into, const Layers& add);

/// What one oracle-checked scenario execution produced.
struct UnitResult {
  std::uint64_t seed = 0;
  bool oracleOk = false;
  std::string verdict;               ///< Oracle summary (violations, if any).
  std::uint64_t confirmed = 0;       ///< Elements the oracle confirmed.
  std::uint64_t events = 0;          ///< Simulator::firedEvents().
  bool cleanDrain = false;
  std::string fingerprint;           ///< exp/sweep.hpp fingerprintResult.
  // Wall seconds per phase.
  double buildS = 0, runS = 0, drainS = 0, collectS = 0, oracleS = 0,
         exportS = 0, totalS = 0;
  std::vector<double> sliceMs;       ///< Wall ms per simulated slice of run().
  Layers layers;
};

/// Run one scenario end to end and judge it with the exactly-once oracle.
/// Records a run span with phase children into `spans`, and a span per slice
/// when `sliceSpans` is set (the span log then stays the same size however
/// many repetitions a run makes).
UnitResult runUnit(const streamha::ScenarioParams& params,
                   streamha::SimDuration slice, Tamper tamper, SpanLog& spans,
                   std::int64_t parentSpan, bool sliceSpans);

/// FNV-1a 64 of a fingerprint, as 16 hex digits.
std::string digestOf(const std::string& fingerprint);

}  // namespace perfbench
