#!/usr/bin/env python3
"""Build and run the StreamPattern benchmark.

One measurement (the last line of standard output is the JSON result):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Spread report: runs every workload K times, alternating the workload order
and using seeds base..base+K-1, and prints each metric's median, quartiles
and (q3 - q1) / median; `raw:` rows give the end-to-end times before the
host-speed scaling:

    python3 perfbench/run.py --spread K [--seconds S] [--trace 0|1]
                             [--workloads a,b] [--seed-base N] [--json PATH]

Determinism check: runs each workload traced twice on one seed and requires
the per-seed counts to repeat exactly, then once on a second seed, which must
produce different inputs and still be correct:

    python3 perfbench/run.py --check [--seconds S] [--workloads a,b]

The benchmark is built from source with cargo (offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["soc-rulepack", "social-churn", "netflow-storm"]
# Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC = [
    "core.matches_per_edge",
    "core.queries_registered",
    "sp-sjtree.stored_rows",
    "sp-iso.searches_per_edge",
]
# The end-to-end times before host-speed scaling, printed on standard error.
RAW = re.compile(r"^perfbench: raw: (.*)$", re.M)


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def measure(binary, workload, seed, seconds, trace, echo=False):
    """Runs one measurement; returns (result, stderr text, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(done.stderr)
    if echo:
        sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, done.stderr, done.returncode


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(binary, args):
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    for i in range(args.spread):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, err, code = measure(binary, w, args.seed_base + i, args.seconds, args.trace)
            if code != 0 or not result or not result["correct"]:
                sys.exit(f"perfbench: {w} seed {args.seed_base + i} failed (exit {code})")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            raw = RAW.search(err)
            for pair in raw.group(1).split() if raw else []:
                name, value = pair.split("=")
                values[w].setdefault("raw:" + name, []).append(float(value))
    report = {}
    print(f"{'workload':<14} {'metric':<38} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for w in workloads:
        report[w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else 0.0
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": vals}
            print(f"{w:<14} {name:<38} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


def check(binary, args):
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in (args.seed_base, args.seed_base, args.seed_base + 1):
            result, err, code = measure(binary, w, seed, args.seconds, True)
            found = re.search(r"inputs ([0-9a-f]{16})", err)
            runs.append((result, found.group(1) if found else None, code))
        (a, fa, ca), (b, fb, cb), (c, fc, cc) = runs
        counts = lambda r: {k: r["metrics"][k]["value"] for k in DETERMINISTIC}
        problems = []
        if any(code != 0 for code in (ca, cb, cc)):
            problems.append("a run exited with an error")
        elif counts(a) != counts(b):
            problems.append(f"counts differ between runs of one seed: {counts(a)} vs {counts(b)}")
        if fa != fb or fa == fc:
            problems.append(f"input fingerprints {fa} {fb} {fc}: same seed must match, next seed differ")
        if not all(r and r["correct"] for r in (a, b, c)):
            problems.append("a run was not correct")
        print(f"{w}: " + ("ok" if not problems else "; ".join(problems)))
        ok = ok and not problems
    if not ok:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spread", type=int, metavar="K")
    p.add_argument("--check", action="store_true")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--json")
    args = p.parse_args()
    if args.spread is None and not args.check and not args.workload:
        p.error("one of --workload, --spread or --check is required")
    if args.spread is not None and args.spread < 2:
        p.error("--spread needs at least 2 runs per workload")
    binary = build()
    if args.spread is not None:
        spread(binary, args)
    elif args.check:
        check(binary, args)
    else:
        _, _, code = measure(binary, args.workload, args.seed, args.seconds, args.trace, echo=True)
        sys.exit(code)


if __name__ == "__main__":
    main()
