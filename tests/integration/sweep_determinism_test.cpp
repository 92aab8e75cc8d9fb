// End-to-end determinism of the parallel seed-sweep runner: a chaos sweep
// farmed over worker threads must produce, per seed, the bit-identical trace
// and ScenarioResult a serial sweep produces -- that equivalence is what
// makes STREAMHA_SWEEP_WORKERS=1 a sound bisect knob (docs/TESTING.md) and
// parallel CI sweeps trustworthy. (Cross-build behaviour is pinned by the
// BehaviourCorpus test.)
//
// This file carries the `integration` label on purpose: the TSan CI job runs
// `ctest -LE chaos`, so the parallel runner is raced under the sanitizer
// here even though the full-size sweeps live in the chaos tier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/chaos_harness.hpp"
#include "harness/sweep_runner.hpp"

namespace streamha {
namespace {

TEST(SweepDeterminism, ParallelSweepIsBitIdenticalToSerialPerSeed) {
  const std::vector<std::uint64_t> seeds = harness::seedRange(1, 6);

  SweepOptions parallel;
  parallel.threads = 4;
  const std::vector<harness::ChaosOutcome> outcomes = harness::runChaosSweep(
      seeds, harness::tracedChaosParams, harness::tracedChaosOpts(), parallel);

  ASSERT_EQ(outcomes.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_FALSE(outcomes[i].trace.empty()) << "seed " << seeds[i];
    ASSERT_FALSE(outcomes[i].resultFingerprint.empty()) << "seed " << seeds[i];
  }

  // Re-run every seed serially on this thread and compare trace + result
  // fingerprint byte for byte.
  const std::vector<std::string> mismatches =
      harness::serialCrossCheck(seeds, outcomes, harness::tracedChaosParams,
                                harness::tracedChaosOpts(), seeds);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

}  // namespace
}  // namespace streamha
