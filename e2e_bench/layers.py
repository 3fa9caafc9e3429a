#!/usr/bin/env python3
"""Every workload once, end to end and layer by layer, with the tracing overhead.

    python3 e2e_bench/layers.py [--seed N] [--workload W ...] [--seconds S]

For each workload it makes one untraced and one traced run on the same
seed (each checks its outputs), prints the untraced run's end-to-end
metrics, the traced run's per-layer table (the rows marked + sum to the
traced wall time, unattributed_s included) and the overhead of tracing:
traced.wall_s against the untraced run's wall_s.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), proc.stderr.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        plain, _ = run(w, args.seed, seconds, 0)
        print("%s: %d ops, %d failed" % (w, plain["attempted"], plain["failed"]))
        for k, m in plain["metrics"].items():
            print("    %-24s %14.6f %s" % (k, m["value"], m["unit"]))
        traced, log = run(w, args.seed, seconds, 1)
        table = log[log.index("per-layer table"):]
        print(table.rstrip())
        wall = plain["metrics"]["wall_s"]["value"]
        twall = traced["metrics"]["traced.wall_s"]["value"]
        print("    tracing overhead: traced %.3f s against untraced %.3f s (%+.1f%%)\n"
              % (twall, wall, 100.0 * (twall / wall - 1.0)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
