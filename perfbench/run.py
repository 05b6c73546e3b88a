#!/usr/bin/env python3
"""Repo benchmark: build perfbench from source and measure one workload.

Run from the repository root:

    python3 perfbench/run.py --workload btio|openloop|storm_ec \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build). The binary runs
in PROCESSES processes in turn, each measuring a share of --seconds: the
first also makes the traced run and everything derived from it, the others
only repeat the host-time measurements. Every process must report the same
simulated fingerprint. wall_per_sim_s (and sim.events_per_host_s) pool the
reps of all processes: each process reports the fastest host time of every
event slice of the measured phase over its reps (its SLICES line), and the
result sums each slice's fastest time over all processes. The other
host-time figures are medians over the processes, so no single process's
memory layout decides them.

The first process's report lines are echoed; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list. A failed correctness check prints
correct=false and exits 1; a missing source tree or a failed build exits
non-zero without a result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
DEFAULT_SEED = 1
PROCESSES = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # all processes together


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, **kw):
    """Run `cmd`, killing it (and waiting for it) if it outlives `timeout`."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}", 3)
        return proc.returncode, out, err


def build(build_dir):
    if not (REPO / "src" / "raid" / "rig.hpp").is_file():
        fail(f"simulator sources not found under {REPO / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                 stderr=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")
    return build_dir / "perfbench"


def parse(stdout):
    """METRIC/CHECK/OPS/SIM/SLICES lines of the binary's report."""
    metrics, failures, ops, sim, slices = {}, [], {}, None, []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "METRIC":
            metrics[parts[1]] = float(parts[2])
        elif line.startswith("CHECK FAIL"):
            failures.append(line[len("CHECK FAIL "):])
        elif parts and parts[0] == "OPS":
            ops = dict(p.split("=", 1) for p in parts[1:])
        elif parts and parts[0] == "SIM":
            sim = line
        elif parts and parts[0] == "SLICES":
            slices = [float(p) for p in parts[1:]]
    return metrics, failures, ops, sim, slices


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or REPO / ".bench_build")
    binary = build(build_dir.resolve())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reports, failures, codes = [], [], []
    for i in range(PROCESSES):
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds / PROCESSES),
               "--trace", str(args.trace), "--extras", "1" if i == 0 else "0"]
        code, out, err = run_checked(cmd, max(1, deadline - time.monotonic()),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        sys.stderr.write(err)
        report = parse(out)
        if not report[0] or "attempted" not in report[2] or not report[3]:
            sys.stderr.write(out)
            fail(f"perfbench exited {code} without a report", 1)
        if i == 0:
            first_out = out
        reports.append(report)
        failures += report[1]
        codes.append(code)
    if len({r[3] for r in reports}) != 1:
        failures.append("processes disagree on the SIM fingerprint/events")
    samples = {}
    for metrics, _, _, _, _ in reports:
        for name, v in metrics.items():
            samples.setdefault(name, []).append(v)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    ops = reports[0][2]
    sim = dict(p.split("=", 1) for p in reports[0][3].split()[1:])
    slices = [r[4] for r in reports]
    if not slices[0] or any(len(s) != len(slices[0]) for s in slices):
        failures.append("processes disagree on the event slices")
    else:
        fastest = sum(min(col) for col in zip(*slices))
        metrics["wall_per_sim_s"] = fastest / float(sim["sim_s"])
        metrics["sim.events_per_host_s"] = float(sim["events"]) / fastest

    for line in first_out.splitlines():
        if not line.startswith("METRIC"):
            print(line)
    print("PROCESSES wall_per_sim_s " +
          " ".join(f"{v:.6g}" for v in samples["wall_per_sim_s"]))
    result = {}
    for m in wanted:
        v = metrics.get(m["name"])
        if v is None or not math.isfinite(v):
            failures.append(f"metric {m['name']} missing or not finite")
            continue
        result[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<40} {v:>18.6g} {m['unit']}")
    correct = all(c == 0 for c in codes) and not failures
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({"correct": correct,
                      "attempted": int(ops["attempted"]),
                      "failed": int(ops["failed"]),
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
