#!/usr/bin/env python3
"""End-to-end benchmark of the interferometry library, CLI and daemon.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the measuring program
(e2e_bench/main.exe) and the daemon (bin/interferometry_cli.exe) into
.bench_build, runs one workload in fresh state under .bench_state, checks
its outputs and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (plus a readable table on stderr). See e2e_bench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("campaign-cold", "campaign-warm", "sweep", "serve")

# Rounds of fixed work per run: round(seconds / nominal seconds per round),
# clamped to [minimum, maximum]. The op count depends only on --seconds, so
# a run's failed share is fixed. campaign-cold is always one campaign of 690
# observations; serve has 17 rounds of distinct jobs (the daemon takes 3 or
# more layouts, and the cached measure asks for 19 - round).
ROUND = {
    "campaign-warm": (2.5, 2, 1000),  # 24 warm Campaign.run calls
    "sweep": (20.0, 1, 1000),  # 66 studies
    "serve": (0.625, 5, 17),  # 6 or 7 daemon round trips
}

BUILD_DIR = ".bench_build"
STATE_DIR = ".bench_state"
PHASE_TIMEOUT = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("e2e_bench: " + msg)
    sys.exit(code)


def build():
    needed = ["dune-project", "lib", "bin/interferometry_cli.ml", "e2e_bench/dune", "e2e_bench/main.ml"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))
    targets = ["./e2e_bench/main.exe", "./bin/interferometry_cli.exe"]
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + targets
    # no shared dune cache: the build writes inside the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    return [os.path.join(BUILD_DIR, "default", t[2:]) for t in targets]


def reap(proc, timeout):
    """Wait until proc ends; its resource usage, or None after timeout s."""
    deadline = time.time() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.time() > deadline:
            return None
        time.sleep(0.02)


def kill(proc):
    if proc.returncode is None:
        proc.kill()
        reap(proc, 30)


def phase(argv, state, timeout=PHASE_TIMEOUT):
    """Run one measuring process; return its final JSON object, with the
    process's peak resident set added as peak_rss_mb."""
    out_path = os.path.join(state, "phase-%s.out" % argv[1])
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=sys.stderr)
    try:
        usage = reap(proc, timeout)
    finally:
        kill(proc)
    if usage is None:
        fail("%s timed out" % argv[1], 1)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (argv[1], proc.returncode), 1)
    if proc.returncode != 0 and not out.get("errors"):
        out["errors"] = ["%s exited with %d" % (argv[1], proc.returncode)]
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2.0


def tail(xs):
    """The value with exactly ten ops beyond it."""
    return sorted(xs)[len(xs) - 11]


def start_daemon(cli, state):
    os.makedirs(state)
    log_file = open(os.path.join(state, "daemon.log"), "wb")
    t0 = time.time()
    proc = subprocess.Popen(
        [cli, "serve", "--state-dir", state], stdout=log_file, stderr=subprocess.STDOUT
    )
    log_file.close()
    return proc, t0


def stop_daemon(proc):
    """SIGTERM (a graceful drain), then SIGKILL after 60 s; the daemon's
    peak resident set in MiB."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
    usage = reap(proc, 60)
    kill(proc)
    return usage.ru_maxrss / 1024.0 if usage else None


def run_workload(args, main, cli, state):
    common = ["--seed", str(args.seed), "--trace", str(args.trace)]
    rounds = []
    if args.workload in ROUND:
        nominal, minimum, maximum = ROUND[args.workload]
        rounds = ["--rounds", str(min(maximum, max(minimum, round(args.seconds / nominal))))]
    os.makedirs(state)
    if args.workload == "campaign-cold":
        t0 = time.time()
        return phase([main, "cold", "--state", state, "--t0", repr(t0)] + rounds + common, state)
    if args.workload == "campaign-warm":
        # the fill runs in a process of its own; it is part of set-up
        t0 = time.time()
        out = phase([main, "fill", "--seed", str(args.seed), "--state", state], state)
        if out["errors"]:
            return out
        fill_s = time.time() - t0
        t1 = time.time()
        out = phase([main, "warm", "--state", state, "--t0", repr(t1)] + rounds + common, state)
        out["setup_s"] = fill_s + out.get("setup_s", 0.0)
        return out
    if args.workload == "sweep":
        return phase([main, "sweep", "--t0", repr(time.time())] + rounds + common, state)
    # serve: three set-ups (daemon start, readiness, cache fill), each on a
    # fresh daemon; the third one then carries the load
    setups = []
    for i in range(3):
        sdir = os.path.join(state, str(i))
        daemon, t0 = start_daemon(cli, sdir)
        try:
            argv = [main, "serve", "--state", sdir, "--t0", repr(t0), "--daemon-pid", str(daemon.pid)]
            out = phase(argv + (rounds if i == 2 else ["--rounds", "0"]) + common, sdir)
        finally:
            rss = stop_daemon(daemon)
        if out["errors"]:
            return out
        setups.append(out["setup_s"])
    if rss is None:
        fail("the daemon did not stop", 1)
    out["setup_s"] = median(setups)
    out["peak_rss_mb"] = rss
    return out


def end_to_end(out):
    ops = out["ops_ms"]
    return {
        "wall_s": (out["wall_s"], "s"),
        "cpu_s": (out["cpu_s"], "s"),
        "setup_s": (out["setup_s"], "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "op_p50_ms": (median(ops), "ms"),
        "op_tail_ms": (tail(ops), "ms"),
    }


LAYER_UNITS = {
    "prepare.calls": "count",
    "prepare.needed_ratio": "ratio",
    "replay.minst_per_s": "Minst/s",
    "fused.lane_minst_per_s": "Minst/s",
    "steer.lanes_replayed": "count",
    "steer.replay_ratio": "ratio",
    "obs_cache.hit_ratio": "ratio",
    "obs_cache.stores": "count",
    "serve.polls_per_job": "count",
}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "s"


def per_layer(workload, out):
    layers = dict(out["layers"])
    sum_of = layers.pop("sum_of")
    metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    rows = ["per-layer table, %s (traced wall %.3f s, %d ops)" % (workload, layers["traced.wall_s"], len(out["ops_ms"]))]
    for k, v in layers.items():
        mark = "  +" if k in sum_of or k == "unattributed_s" else "   "
        rows.append("%s %-24s %14.6f %s" % (mark, k, v, layer_unit(k)))
    for k, v in sum_of.items():
        if k not in layers:
            rows.append("  + %-24s %14.6f s" % (k, v))
    total = sum(sum_of.values()) + layers["unattributed_s"]
    rows.append("    rows marked + sum to %.6f s = traced.wall_s" % total)
    log("\n".join(rows))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    main_exe, cli = build()
    state = os.path.join(STATE_DIR, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(state, ignore_errors=True)
    try:
        out = run_workload(args, main_exe, cli, state)
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            os.rmdir(STATE_DIR)
        except OSError:
            pass
    errors = out.get("errors", [])
    for e in errors:
        log("check failed: " + e)
    if errors:
        print(json.dumps({"correct": False, "attempted": out.get("attempted", 1), "failed": out.get("failed", 0), "metrics": {}}))
        sys.exit(1)
    metrics = per_layer(args.workload, out) if args.trace else end_to_end(out)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
