// Benchmark driver: runs one workload, single-threaded, in this process.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --out RAW.json --spans SPANS.json [--tamper T] [--smoke]
//
// Runs each seed once through the harness driver (harness::runChaosScenario)
// for a reference result digest, and reads the process's peak memory then.
// Then repeats the workload's unit of work (one scenario, or one chaos sweep
// of consecutive seeds) until S wall seconds are spent, judging every
// scenario with the exactly-once oracle and comparing its result digest with
// the reference. With --trace 1 half the time goes to untraced repetitions and
// half to traced ones; the per-layer counts come from the first traced
// repetition and the unit-cost replays run last. Writes raw measurements to
// --out (run.py turns them into metrics) and the benchmark's own spans to
// --spans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/chaos_harness.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Scenario set-ups timed before each untraced repetition, and the fewest
/// set-up samples (each one repetition's scenarios) taken there.
constexpr int kSetupScenariosPerRep = 8;
constexpr int kMinSetupSamplesPerRep = 3;

struct Rep {
  bool traced = false;
  int units = 0;
  std::vector<double> setupS;  ///< Set-up samples taken before the rep.
  double wallS = 0, buildS = 0, runS = 0, drainS = 0, collectS = 0,
         oracleS = 0, exportS = 0;
  double confirmed = 0, events = 0;
  std::vector<double> sliceMs;
  Layers layers;
};

struct Options {
  Workload workload = Workload::kDataplane;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  Tamper tamper = Tamper::kNone;
  std::string out;
  std::string spans;
};

bool parseArgs(int argc, char** argv, Options& o) {
  bool haveWorkload = false, haveSeed = false, haveSeconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (!parseWorkload(value, o.workload)) return false;
      haveWorkload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
      haveSeed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
      haveSeconds = o.seconds > 0;
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--tamper") {
      if (!parseTamper(value, o.tamper)) return false;
    } else if (arg == "--out") {
      o.out = value;
    } else if (arg == "--spans") {
      o.spans = value;
    } else {
      return false;
    }
  }
  return haveWorkload && haveSeed && haveSeconds && !o.out.empty();
}

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void writeNumberList(std::ostream& out, const std::vector<double>& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << values[i];
  }
  out << "]";
}

void writeLayers(std::ostream& out, const Layers& layers) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : layers) {
    out << (first ? "" : ",") << "\"" << key << "\":" << value;
    first = false;
  }
  out << "}";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int run(const Options& o) {
  const Sizing sizing = sizingFor(o.workload, o.smoke);
  const int nSeeds = o.workload == Workload::kChaos ? sizing.chaosSeeds : 1;
  SpanLog spans;

  // Inputs: the per-seed scenarios (and chaos plans), made once from --seed.
  const std::int64_t planSpan = spans.begin("make inputs", -1);
  std::vector<streamha::ScenarioParams> untraced, traced;
  for (int i = 0; i < nSeeds; ++i) {
    const std::uint64_t seed = o.seed + static_cast<std::uint64_t>(i);
    untraced.push_back(paramsFor(o.workload, seed, sizing, false));
    traced.push_back(paramsFor(o.workload, seed, sizing, true));
  }
  spans.end(planSpan);

  // Set-up cost: construction + build() + start() of every scenario of one
  // repetition, timed on its own before each untraced repetition, so the
  // samples spread over the whole run.
  const int setupTrialsPerRep =
      std::max(kMinSetupSamplesPerRep, kSetupScenariosPerRep / nSeeds);
  const auto setupTrials = [&](std::vector<double>& setupSamples) {
    const std::int64_t span = spans.begin("set-up trials", -1);
    for (int t = 0; t < setupTrialsPerRep; ++t) {
      double sum = 0.0;
      for (const auto& params : untraced) {
        const auto start = std::chrono::steady_clock::now();
        streamha::Scenario s(params);
        s.build();
        s.start();
        sum += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
      }
      setupSamples.push_back(sum);
    }
    spans.end(span);
  };

  std::map<std::uint64_t, std::string> reference;  // seed -> fingerprint
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<Rep> reps;

  // Reference digests from the harness's own driver, which runs each scenario
  // in one run() call with nothing sampled: every sliced, sampled and traced
  // run of the benchmark must reproduce them.
  for (const auto& params : untraced) {
    const std::int64_t span = spans.begin(
        "harness reference seed=" + std::to_string(params.seed), -1);
    const streamha::harness::ChaosOutcome ref =
        streamha::harness::runChaosScenario(
            params, streamha::harness::ChaosRunOpts{});
    spans.end(span);
    ++attempted;
    if (!ref.oracle.ok) {
      ++failed;
      failures.push_back("seed " + std::to_string(params.seed) +
                         " failed the oracle in the harness driver: " +
                         ref.oracle.summary());
    }
    reference.emplace(params.seed, ref.resultFingerprint);
  }
  // Peak memory of the program: every scenario of a repetition has run once,
  // and the benchmark's own records (spans, per-repetition timings), which
  // grow with the number of repetitions, are still empty.
  const double peakRss = peakRssMb();

  // Slice spans are kept for the first untraced and the first traced
  // repetition only.
  bool sliceSpans[2] = {true, true};
  const auto runRep = [&](bool isTraced) {
    Rep rep;
    rep.traced = isTraced;
    if (!isTraced) setupTrials(rep.setupS);
    const std::int64_t span = spans.begin(
        std::string(isTraced ? "traced rep " : "rep ") +
            std::to_string(reps.size()),
        -1);
    const bool withSlices = sliceSpans[isTraced];
    sliceSpans[isTraced] = false;
    for (const auto& params : isTraced ? traced : untraced) {
      UnitResult u =
          runUnit(params, sizing.slice, o.tamper, spans, span, withSlices);
      ++attempted;
      if (o.tamper == Tamper::kDigest) u.fingerprint += " tampered";
      const std::string& expected = reference.at(u.seed);
      bool ok = u.oracleOk;
      if (!u.oracleOk) {
        failures.push_back("seed " + std::to_string(u.seed) +
                           " failed the oracle: " + u.verdict);
      }
      if (u.fingerprint != expected) {
        ok = false;
        failures.push_back("seed " + std::to_string(u.seed) + " digest " +
                           digestOf(u.fingerprint) + (isTraced ? " (traced)" : "") +
                           " differs from the harness driver's " +
                           digestOf(expected));
      }
      if (!ok) ++failed;
      ++rep.units;
      rep.wallS += u.totalS;
      rep.buildS += u.buildS;
      rep.runS += u.runS;
      rep.drainS += u.drainS;
      rep.collectS += u.collectS;
      rep.oracleS += u.oracleS;
      rep.exportS += u.exportS;
      rep.confirmed += static_cast<double>(u.confirmed);
      rep.events += static_cast<double>(u.events);
      rep.sliceMs.insert(rep.sliceMs.end(), u.sliceMs.begin(),
                         u.sliceMs.end());
      mergeLayers(rep.layers, u.layers);
    }
    spans.end(span);
    reps.push_back(std::move(rep));
  };

  const int minReps = o.smoke ? 2 : 3;
  const double untracedBudget = o.trace ? o.seconds / 2 : o.seconds;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  for (int n = 0; n < minReps || elapsed() < untracedBudget; ++n) {
    runRep(false);
  }
  Layers perLayer;
  if (o.trace) {
    for (int n = 0; n < 1 || elapsed() < o.seconds; ++n) runRep(true);
    for (const Rep& rep : reps) {
      if (rep.traced) {
        perLayer = rep.layers;
        break;
      }
    }
    runReplays(untraced.front(), perLayer, spans, -1);
  }

  for (const auto& [seed, fingerprint] : reference) {
    std::cout << "digest " << workloadName(o.workload) << " seed=" << seed
              << " fnv=" << digestOf(fingerprint) << "\n";
  }
  for (const std::string& f : failures) std::cout << "FAIL " << f << "\n";

  std::ofstream out(o.out);
  out.precision(17);
  out << "{\"workload\":" << jsonString(workloadName(o.workload))
      << ",\"seed\":" << o.seed << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"seeds_per_rep\":" << nSeeds
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"peak_rss_mb\":" << peakRss << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i == 0 ? "" : ",") << jsonString(failures[i]);
  }
  out << "],\"digests\":{";
  bool first = true;
  for (const auto& [seed, fingerprint] : reference) {
    out << (first ? "" : ",") << "\"" << seed << "\":\""
        << digestOf(fingerprint) << "\"";
    first = false;
  }
  out << "},\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    out << (i == 0 ? "" : ",") << "\n{\"traced\":" << (r.traced ? 1 : 0)
        << ",\"units\":" << r.units
        << ",\"setup_s\":";
    writeNumberList(out, r.setupS);
    out << ",\"wall_s\":" << r.wallS
        << ",\"build_s\":" << r.buildS
        << ",\"run_s\":" << r.runS << ",\"drain_s\":" << r.drainS
        << ",\"collect_s\":" << r.collectS << ",\"oracle_s\":" << r.oracleS
        << ",\"export_s\":" << r.exportS << ",\"confirmed\":" << r.confirmed
        << ",\"events\":" << r.events
        << ",\"clean_drains\":" << r.layers.at("harness.clean_drains")
        << ",\"slice_ms\":";
    writeNumberList(out, r.sliceMs);
    out << "}";
  }
  out << "],\"layers\":";
  writeLayers(out, perLayer);
  out << "}\n";
  if (!out) {
    std::cerr << "cannot write " << o.out << "\n";
    return 2;
  }
  if (!o.spans.empty() && !spans.write(o.spans)) {
    std::cerr << "cannot write " << o.spans << "\n";
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parseArgs(argc, argv, options)) {
    std::cerr << "usage: perfbench_driver --workload "
                 "hybrid_dataplane|hybrid_control|chaos_sweep --seed N "
                 "--seconds S --trace 0|1 --out RAW.json [--spans SPANS.json] "
                 "[--tamper none|sink|digest|warmup] [--smoke]\n";
    return 2;
  }
  return perfbench::run(options);
}
