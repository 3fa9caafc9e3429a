#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same checkout.

    python3 e2e_bench/steady.py [--runs N] [--workload W ...] [--seconds S] [--out FILE]

For every workload it runs set A (seeds 101..100+N) and set B (seeds
201..200+N), alternating A and B, each run on its own seed. For every
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median of each set, and the drift of B's median from A's,
against the metric's bound in BENCHMARK.json. It also checks that the
share of failed operations is identical in the two sets. Exit status 1
if any spread (setup_s excepted) or drift exceeds its bound.

"suggest" is three times the worst spread or drift seen, the figure the
bounds in BENCHMARK.json were derived from (capped at 0.25).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="append every run's result here as JSON lines")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 101), ("B", 201)) if i % 2 == 0 else (("B", 201), ("A", 101)):
                r = run_once(w, base + i, seconds)
                sets[name].append(r)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": w, "set": name, "seed": base + i, **r}) + "\n")
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print("%s: %d + %d runs, failed share %s%s" % (
            w, args.runs, args.runs, sorted(shares["A"] | shares["B"]), "" if same_share else "  DIFFERS"))
        print("  %-12s %12s %12s %12s %8s %8s %8s %7s %8s" % (
            "metric", "A median", "A q1", "A q3", "spreadA", "spreadB", "drift", "bound", "suggest"))
        for m in bounds:
            stats = {}
            for k, runs in sets.items():
                vals = [r["metrics"][m]["value"] for r in runs]
                q1, q2, q3 = quartiles(vals)
                stats[k] = (q1, q2, q3, (q3 - q1) / q2)
            drift = stats["B"][1] / stats["A"][1] - 1.0
            worst = max(stats["A"][3], stats["B"][3], abs(drift))
            bound = bounds[m]
            bad = drift > bound or (m != "setup_s" and max(stats["A"][3], stats["B"][3]) > bound)
            ok &= not bad
            print("  %-12s %12.5g %12.5g %12.5g %8.4f %8.4f %+8.4f %7.3f %8.3f%s" % (
                m, stats["A"][1], stats["A"][0], stats["A"][2], stats["A"][3], stats["B"][3],
                drift, bound, min(0.25, 3 * worst), "  OVER" if bad else ""))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
