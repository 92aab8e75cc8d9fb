// Behaviour corpus: a committed record of what the simulator does.
//
// Every line of tests/golden/behaviour_corpus.txt is one named run and its
// lossless result digest (exp/sweep.hpp fingerprintResult); traced runs also
// carry an FNV-1a hash of their JSONL trace. The runs cover each HA mode on
// the canonical 8-PE chain, each opt-in subsystem switched on once, two
// traced chaos runs with per-message events, and 20 seeds of the substrate
// chaos profile. Any change to simulated behaviour -- event order, RNG use,
// a counter -- changes some line, so a refactor that claims "no behaviour
// change" is checked here rather than asserted in prose.
//
// The test always writes the corpus it computed next to the test binary
// (behaviour_corpus.actual.txt). An intentional behaviour change is
// recorded by running tests/golden/regen.sh, which copies that file over
// the committed one, so the change shows up as a diff in review.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "harness/chaos_harness.hpp"

namespace streamha {
namespace {

std::string fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// "trace=<hash> <fingerprint>" for traced runs, "<fingerprint>" otherwise.
std::string corpusEntry(const std::string& fingerprint,
                        const std::string& trace) {
  if (trace.empty()) return fingerprint;
  return "trace=" + fnv1a(trace) + " " + fingerprint;
}

std::string runScenario(const ScenarioParams& p) {
  Scenario s(p);
  const ScenarioResult r = s.runAll();
  return corpusEntry(fingerprintResult(r), harness::traceJsonl(s));
}

/// The canonical paper chain (8 PEs, 4 subjobs) at reduced duration, under
/// transient failure load on the protected primary.
ScenarioParams canonical(HaMode mode) {
  ScenarioParams p;
  p.mode = mode;
  p.protectedSubjobs = {1, 2};
  p.provisionSpares = true;
  p.failureFraction = 0.3;
  p.duration = 10 * kSecond;
  p.seed = 7;
  return p;
}

struct CorpusRun {
  std::string name;
  std::function<std::string()> run;
};

std::vector<CorpusRun> corpusRuns() {
  std::vector<CorpusRun> runs;
  for (HaMode mode : {HaMode::kNone, HaMode::kActiveStandby,
                      HaMode::kPassiveStandby, HaMode::kHybrid}) {
    runs.push_back({std::string("mode.") + toString(mode),
                    [mode] { return runScenario(canonical(mode)); }});
  }

  runs.push_back({"block.accrual_damping", [] {
                    ScenarioParams p = canonical(HaMode::kHybrid);
                    p.accrual.enabled = true;
                    p.damping.enabled = true;
                    p.trace.enabled = true;
                    return runScenario(p);
                  }});
  runs.push_back({"block.placement", [] {
                    ScenarioParams p = canonical(HaMode::kHybrid);
                    p.placement.enabled = true;
                    p.placement.topology.racks = 4;
                    p.placement.poolMachines = 4;
                    // A permanent primary loss routes the promotion's fresh
                    // standby through the planner.
                    p.failStopAfter = 2 * kSecond;
                    CrashSpec crash;
                    crash.machine = 2;
                    crash.crashAt = 5 * kSecond;
                    p.faults.crashes.push_back(crash);
                    return runScenario(p);
                  }});
  runs.push_back({"block.membership", [] {
                    ScenarioParams p = canonical(HaMode::kHybrid);
                    p.membership.enabled = true;
                    p.membership.latentMachines = 1;
                    return runScenario(p);
                  }});
  runs.push_back({"block.flow_shedding", [] {
                    ScenarioParams p = canonical(HaMode::kNone);
                    p.dataRatePerSec = 3000.0;
                    p.flow.enabled = true;
                    p.flow.shedThreshold = 100;
                    return runScenario(p);
                  }});
  runs.push_back({"block.delta_tiered_store", [] {
                    ScenarioParams p = canonical(HaMode::kHybrid);
                    p.stateKeyBytes = 64;
                    p.store.delta.enabled = true;
                    p.store.delta.compactEveryRuns = 4;
                    p.store.tiered = true;
                    return runScenario(p);
                  }});

  for (std::uint64_t seed : {5ull, 9ull}) {
    runs.push_back({"traced_chaos.seed" + std::to_string(seed), [seed] {
                      ScenarioParams p = harness::tracedChaosParams(seed);
                      p.trace.messageEvents = true;
                      const harness::ChaosOutcome out = harness::runChaosScenario(
                          p, harness::tracedChaosOpts());
                      return corpusEntry(out.resultFingerprint, out.trace);
                    }});
  }

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    runs.push_back({"substrate_chaos.seed" + std::to_string(seed), [seed] {
                      const harness::ChaosOutcome out =
                          harness::runChaosScenario(
                              harness::substrateProfileParams(seed),
                              harness::ChaosRunOpts{});
                      return out.resultFingerprint;
                    }});
  }
  return runs;
}

/// name -> entry, from "<name> <entry>" lines.
std::map<std::string, std::string> readCorpus(std::istream& in) {
  std::map<std::string, std::string> corpus;
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    corpus[line.substr(0, space)] = line.substr(space + 1);
  }
  return corpus;
}

/// The first differing "key=value" field of two entries, for a readable
/// mismatch report (whole entries run to kilobytes).
std::string firstDifference(const std::string& want, const std::string& got) {
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  const std::size_t start = want.find_last_of("; {", i) + 1;
  const auto field = [start](const std::string& s) {
    return s.substr(start, s.find_first_of("; ", start) - start);
  };
  return "golden '" + field(want) + "' vs actual '" + field(got) + "'";
}

TEST(BehaviourCorpus, EveryRunMatchesTheCommittedCorpus) {
  const std::vector<CorpusRun> runs = corpusRuns();
  std::vector<std::string> entries(runs.size());
  std::vector<std::uint64_t> indices;
  for (std::size_t i = 0; i < runs.size(); ++i) indices.push_back(i);
  runSeedSweep(indices, [&](std::uint64_t index, std::size_t) {
    entries[index] = runs[index].run();
  });

  {
    std::ofstream actual(STREAMHA_CORPUS_ACTUAL);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      actual << runs[i].name << ' ' << entries[i] << '\n';
    }
  }

  std::ifstream goldenFile(STREAMHA_CORPUS_GOLDEN);
  ASSERT_TRUE(goldenFile.good()) << "missing " << STREAMHA_CORPUS_GOLDEN;
  std::map<std::string, std::string> golden = readCorpus(goldenFile);

  std::vector<std::string> mismatches;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto it = golden.find(runs[i].name);
    if (it == golden.end()) {
      mismatches.push_back(runs[i].name + ": not in the golden corpus");
      continue;
    }
    if (it->second != entries[i]) {
      mismatches.push_back(runs[i].name + ": " +
                           firstDifference(it->second, entries[i]));
    }
    golden.erase(it);
  }
  for (const auto& [name, entry] : golden) {
    mismatches.push_back(name + ": in the golden corpus but no longer run");
  }

  std::ostringstream report;
  for (const std::string& m : mismatches) report << "\n  " << m;
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << runs.size()
      << " corpus lines differ (actual corpus: " << STREAMHA_CORPUS_ACTUAL
      << "; tests/golden/regen.sh records an intentional change):"
      << report.str();
}

}  // namespace
}  // namespace streamha
