#!/usr/bin/env python3
"""Build and run the ruleserv daemon benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload bulk_match --seed 1 --seconds 10 --trace 0

builds the `ruleserv` daemon and the `perfbench` load generator from
source (into $CARGO_TARGET_DIR, default `.bench_build`), makes a
memory-backed directory for durable homes, runs the generator and
passes its output through. The last line of standard output is the
result as one JSON object; the exit code is non-zero on any failed
check or error. With `--trace 1` the per-layer metrics are reported and
the spans are written to `perfbench/out/`.

Steadiness, over seeds 1..N of every workload (or of `--workload`):

    python3 perfbench/run.py --steadiness 10 [--workload point_ops] [--seconds 10]

prints each end-to-end metric's median, quartiles and (Q3-Q1)/median
beside its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_match", "point_ops"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest,
           "-p", "perfbench", "-p", "ruleserv",
           "--bin", "perfbench", "--bin", "ruleserv"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"run.py: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("run.py: build failed")
        return None
    release = os.path.join(ROOT, target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "ruleserv")


def homes_base():
    """A fresh directory for durable homes: memory-backed when the host
    has /dev/shm, otherwise inside the checkout."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return tempfile.mkdtemp(prefix="perfbench-", dir=shm)
    local = os.path.join(ROOT, ".bench_homes")
    os.makedirs(local, exist_ok=True)
    return tempfile.mkdtemp(prefix="perfbench-", dir=local)


def stop_strays(base):
    """Kills any daemon still running on a home under `base` (left if
    the generator itself was killed) and waits for it to end."""
    mine = base.encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                if mine in f.read():
                    pids.append(int(entry))
        except OSError:
            continue
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in pids:
        for _ in range(500):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    # A zombie has ended; its parent reaps it.
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break
            time.sleep(0.01)


class Stop(Exception):
    pass


def on_signal(signum, _frame):
    raise Stop(f"signal {signum}")


def run_once(bins, workload, seed, seconds, trace, echo=True):
    """Runs the generator once; returns (exit code, last stdout line)."""
    generator, daemon = bins
    base = homes_base()
    cmd = [generator, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--daemon", daemon, "--homes", base]
    if trace:
        spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.tsv")
        cmd += ["--spans", spans]
    child = None
    last = ""
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        for line in child.stdout:
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
            if line.strip():
                last = line.strip()
        return child.wait(), last
    finally:
        if child is not None and child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        stop_strays(base)
        shutil.rmtree(base, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(bins, workloads, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            code, last = run_once(bins, workload, seed, seconds, False, echo=False)
            if code != 0:
                log(f"{workload} seed {seed}: exit {code}")
                return False
            results.append(json.loads(last))
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {runs} runs of {seconds} s, failed share {sorted(shares)}")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  above bound/3"
                ok = False
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run every workload N times (seeds 1..N) and print spreads")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        bins = build()
        if bins is None:
            return 1
        if args.steadiness:
            workloads = [args.workload] if args.workload else WORKLOADS
            return 0 if steadiness(bins, workloads, args.steadiness, args.seconds) else 1
        if args.workload is None:
            log("run.py: --workload is required")
            return 2
        code, _ = run_once(bins, args.workload, args.seed, args.seconds, args.trace == 1)
        return code
    except Stop as e:
        log(f"run.py: stopped by {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
