// Ablation (paper Section I): load shedding vs high availability.
//
// "Techniques such as load shedding and traffic shaping may alleviate load
// spikes by dropping some incoming data... However, they do not completely
// solve the problem when applications are loss-sensitive." This bench puts
// numbers on that trade: shedding bounds delay by discarding data; the
// Hybrid method bounds delay while delivering everything.
#include "bench_util.hpp"

using namespace streamha;
using namespace streamha::bench;

namespace {

struct Row {
  const char* name;
  HaMode mode;
  std::size_t shedThreshold;
  double shapeRate;
};

}  // namespace

int main() {
  printFigureHeader(
      "Ablation E", "Load shedding vs the Hybrid method under transient failures",
      "Shedding keeps delay low by throwing data away; NONE keeps the data "
      "but stalls; Hybrid keeps both the data and the delay.");

  const Row rows[] = {
      {"NONE", HaMode::kNone, 0, 0},
      {"NONE + shaping", HaMode::kNone, 0, 1100},
      {"NONE + shed@500", HaMode::kNone, 500, 0},
      {"NONE + shed@100", HaMode::kNone, 100, 0},
      {"Hybrid", HaMode::kHybrid, 0, 0},
  };
  const auto seeds = defaultSeeds(3);
  printSeedsNote(seeds);
  Table table({"configuration", "avg delay (ms)", "p99 (ms)", "data lost %"});
  for (const Row& row : rows) {
    RunningStats delay, p99, loss;
    for (std::uint64_t seed : seeds) {
      ScenarioParams p;
      p.mode = row.mode;
      p.flow.enabled = row.shedThreshold != 0;
      p.flow.shedThreshold = row.shedThreshold;
      p.shapeRatePerSec = row.shapeRate;
      p.failureFraction = 0.3;
      p.failureDuration = kSecond;
      p.failuresOnStandbys = true;
      p.duration = 40 * kSecond;
      p.seed = seed;
      Scenario s(p);
      const auto r = s.runAll();
      delay.add(r.avgDelayMs);
      p99.add(r.p99DelayMs);
      loss.add(100.0 * static_cast<double>(r.elementsShed) /
               static_cast<double>(std::max<std::uint64_t>(1, r.sourceGenerated)));
    }
    table.addRow({row.name, Table::num(delay.mean(), 1),
                  Table::num(p99.mean(), 1), Table::num(loss.mean(), 2)});
  }
  streamha::bench::finishTable(table, "ablation_load_shedding");
  return 0;
}
