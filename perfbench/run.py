#!/usr/bin/env python3
"""Oracle-checked wall-clock benchmark of the streamha simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload hybrid_dataplane --seed 1 \
        --seconds 20 --trace 0

Builds perfbench_driver from the repository's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload in its own single-threaded process for --seconds wall seconds, and
prints every metric with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics. `correct` is false when any scenario failed the exactly-once oracle
or its determinism digest, or when a metric is missing.

Workloads, metrics and the per-layer attribution are described in
perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("hybrid_dataplane", "hybrid_control", "chaos_sweep")
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    """Exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(out_dir):
    """Configure (once) and build perfbench_driver; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} did not finish: {err}")
            if done.returncode != 0:
                if cmd is steps[0] and len(steps) == 2:
                    # A half-written configure must not be mistaken for a
                    # finished one on the next run.
                    (out_dir / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log_path.read_text(errors="replace").splitlines()[-15:]
                fail("build failed:\n" + "\n".join(tail))
    return out_dir / "perfbench_driver"


def run_driver(driver, args, out_dir, tamper="none", smoke=False):
    """Run one workload; returns (raw measurements, driver stdout)."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / f"raw-{tag}.json"
    spans_path = out_dir / f"spans-{tag}.json"
    raw_path.unlink(missing_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--spans", str(spans_path),
           "--tamper", tamper]
    if smoke:
        cmd.append("--smoke")
    timeout = min(170.0, 60.0 + 3.0 * args.seconds)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {timeout:.0f} s")
    if done.returncode != 0 or not raw_path.exists():
        fail(f"driver exited with {done.returncode}")
    return json.loads(raw_path.read_text()), done.stdout


def median(values):
    return statistics.median(values) if values else math.nan


def percentile(values, q):
    """Linear-interpolated q-th percentile of `values`."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """End-to-end metrics of one repetition, with host contention filtered out.

    Every untraced repetition of a run does identical simulated work, slice
    for slice. Other tenants of a shared host slow the machine down, in
    bursts of tens of milliseconds to minutes; they never make it faster. So
    each slice of run() is timed by its fastest execution over the
    repetitions, and the rest of a repetition (set-up, drain, collect, the
    oracle, the benchmark's per-slice sampling) by the fastest remainder; set-up, timed apart, by its fastest
    sample. A slowdown of the program itself slows every execution of the
    work it touches, the fastest included. Nothing is rescaled. Returns
    (metrics, notes).
    """
    # The digest check makes any difference in simulated work a failure.
    reps = [r for r in raw["reps"] if not r["traced"]]
    n = min(len(r["slice_ms"]) for r in reps)
    slice_ms = [min(r["slice_ms"][i] for r in reps) for i in range(n)]
    rest_s = min(r["wall_s"] - sum(r["slice_ms"]) / 1e3 for r in reps)
    wall_s = sum(slice_ms) / 1e3 + rest_s
    metrics = {
        "setup_s": min(x for r in reps for x in r["setup_s"]),
        "wall_s": wall_s,
        "elements_per_s": reps[0]["confirmed"] / wall_s,
        "events_per_s": reps[0]["events"] / wall_s,
        "slice_ms_p50": percentile(slice_ms, 50),
        "slice_ms_p90": percentile(slice_ms, 90),
        "chaos_seeds_per_min": 60.0 * reps[0]["units"] / wall_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = [f"{len(reps)} untraced repetitions of {n} slices, "
             f"{sum(len(r['setup_s']) for r in reps)} set-up samples; "
             f"median repetition wall {median([r['wall_s'] for r in reps]):.6g} s"]
    return metrics, notes


def per_layer(raw):
    """perfbench_driver's per-layer values, plus the metrics derived from them."""
    layers = raw["layers"]
    reps = [r for r in raw["reps"] if not r["traced"]]
    traced = [r for r in raw["reps"] if r["traced"]]
    units = sum(r["units"] for r in raw["reps"])

    def count(key):
        return layers.get(key, math.nan)

    def phase_ms(key, pool=reps):
        return median([r[key] * 1e3 for r in pool])

    m = dict(layers)
    m["sim.events_per_element"] = ratio(count("sim.events"),
                                        count("sim.confirmed_elements"))
    accepted = count("net.arq.accepted")
    attempts = accepted + count("net.arq.retransmits")
    # With the ARQ layer unarmed nothing is attempted and nothing is wasted.
    m["net.arq.useful_frac"] = ratio(accepted, attempts) if attempts else 1.0
    m["exp.build_ms"] = phase_ms("build_s")
    m["exp.run_ms"] = phase_ms("run_s")
    m["exp.drain_ms"] = phase_ms("drain_s")
    m["exp.collect_ms"] = phase_ms("collect_s")
    m["exp.slice_samples"] = float(sum(len(r["slice_ms"]) for r in reps))
    m["harness.oracle_ms"] = phase_ms("oracle_s")
    m["harness.clean_drain_frac"] = ratio(
        sum(r["clean_drains"] for r in raw["reps"]), units)
    m["harness.oracle_fail_frac"] = ratio(raw["failed"], raw["attempted"])
    m["trace.overhead_frac"] = ratio(median([r["wall_s"] for r in traced]),
                                     median([r["wall_s"] for r in reps])) - 1.0
    m["trace.export_ms"] = phase_ms("export_s", traced)

    # Attribution: unit cost x operation count, against the simulated-time
    # advance (run() and drainQuiescent()) that the counts cover.
    messages = sum(v for k, v in layers.items() if k.startswith("net.msgs."))
    processed = count("stream.pe_processed")
    est = {
        "sim.est_ms": count("sim.schedule_fire_ns") * count("sim.events"),
        "net.est_ms": count("net.send_deliver_ns") * messages,
        "cluster.est_ms": count("cluster.submit_data_ns") * processed,
        "stream.est_ms": (count("stream.produce_ack_ns")
                          + count("stream.receive_ns")) * processed,
        "checkpoint.est_ms": (count("checkpoint.serialize_ns")
                              * count("checkpoint.count")),
    }
    for key, ns in est.items():
        m[key] = ns / 1e6
    advance_ms = median([(r["run_s"] + r["drain_s"]) * 1e3 for r in reps])
    m["exp.run_unattributed_frac"] = 1.0 - ratio(sum(est.values()) / 1e6,
                                                 advance_ms)
    notes = [f"{len(reps)} untraced and {len(traced)} traced repetitions"]
    return m, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test knobs (perfbench/selftest.py): corrupt a result on purpose,
    # or shrink the simulated sizes for a quick smoke run.
    parser.add_argument("--tamper", default="none",
                        choices=("none", "sink", "digest", "warmup"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    driver = build(out_dir)
    raw, driver_stdout = run_driver(driver, args, out_dir, args.tamper, args.smoke)
    sys.stdout.write(driver_stdout)

    measured, notes = (per_layer if args.trace else end_to_end)(raw)
    metrics = {}
    missing = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value = measured.get(name, math.nan)
        if not math.isfinite(value):
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {raw['workload']} seed {raw['seed']}, repetitions of "
          f"{raw['seeds_per_rep']} scenario(s): " + "; ".join(notes))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name in missing:
        print(f"MISSING metric {name}")

    correct = raw["failed"] == 0 and raw["attempted"] >= 1 and not missing
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
