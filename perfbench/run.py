#!/usr/bin/env python3
"""Build and run the skybyte benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 30 --trace 0

The Go program is built from source into .bench_build/ at the checkout
root, with the Go build cache kept there too, so nothing outside the
checkout is written. Its last line of standard output is the result JSON.

Steadiness mode runs two interleaved sets of the same build and prints,
per set and metric, the median and quartiles, the quartile spread as a
share of the median, and the shift between the two set medians, checked
against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --workload read-path --seconds 30 --steadiness 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(BUILD, "perfbench-out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    """Environment that keeps every Go tool write inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = "-mod=readonly"
    return env


def build(env):
    """Build the benchmark binary; return False when the build fails."""
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          timeout=BUILD_TIMEOUT_S)
    return proc.returncode == 0


def run_once(env, workload, seed, seconds, trace, capture):
    """Run the binary once. With capture, return its result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def bounds():
    """End-to-end bounds from BENCHMARK.json, if the checkout has one."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def steadiness(env, args):
    """Two interleaved sets over the same seeds; print medians and quartiles."""
    sets = ([], [])
    for i in range(args.steadiness):
        for s in sets:
            res = run_once(env, args.workload, args.seed + i, args.seconds, args.trace, True)
            if not res["correct"] or res["failed"]:
                print(f"incorrect result on seed {args.seed + i}", file=sys.stderr)
                return 1
            s.append(res["metrics"])
    limits = bounds()
    ok = True
    print(f"{'metric':32} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(sets[0][0]):
        meds = []
        for label, s in zip("AB", sets):
            vals = [m[name]["value"] for m in s]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            meds.append(med)
            print(f"{name:32} {label:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
                  f"  [{' '.join(f'{v:.6g}' for v in vals)}]")
            lim = limits.get(name)
            if lim and name != "setup_s" and spread > lim["bound"]:
                ok = False
                print(f"  spread {spread:.4f} exceeds bound {lim['bound']}")
        lim = limits.get(name)
        if lim and meds[0]:
            worse = (meds[1] - meds[0]) / meds[0]
            if lim["better"] == "higher":
                worse = -worse
            print(f"{name:32} shift B vs A {worse:+.4f} (bound {lim['bound']})")
            if worse > lim["bound"]:
                ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="paper", choices=["paper", "read-path", "sweep"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--steadiness", type=int, default=0,
                    help="run two interleaved sets of this many seeds each and report their spread")
    args = ap.parse_args()
    env = go_env()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(env, args)
    return run_once(env, args.workload, args.seed, args.seconds, args.trace, False)


if __name__ == "__main__":
    sys.exit(main())
