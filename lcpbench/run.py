#!/usr/bin/env python3
"""The lcp benchmark: build, run one workload in a fresh process, print its result.

    python3 lcpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads and metrics are declared in
BENCHMARK.json. With --trace 0 the run reports the end-to-end metrics,
measured untraced; with --trace 1 it makes the untraced run and then a
traced one, and reports the per-layer metrics. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}

The line before it records provenance (commit, source digest, OCaml
version, nproc, jobs, seed) and the counters that are reported but not
gated. Exit status: 0 on a correct run, 1 when a correctness check
failed, 2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = "_build/default/lcpbench/bin/main.exe"
LCP = "_build/default/bin/main.exe"
TMP = ".lcpbench_tmp"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("lcpbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./" + EXE, "./" + LCP]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "lcpbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(args):
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", TMP, "--lcp", LCP]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        # the serve workload's daemon shares the group; it is normally
        # shut down and reaped already
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(TMP, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing (exit %d)" % (args.workload, proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    raw, status = run_workload(args)

    metrics = {}
    for name, m in raw["metrics"].items():
        if declared.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared with that unit" % (name, m["unit"]))
        metrics[name] = m
    missing = [n for n in declared if n not in metrics]
    if not args.trace and missing:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing))
    # a layer the workload does not exercise did no work
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}

    provenance = dict(raw["provenance"], commit=commit(), source_sha256=source_digest(),
                      workload=args.workload, trace=args.trace)
    print(json.dumps({"provenance": provenance, "reported": raw["info"],
                      "not_exercised": missing if args.trace else []}))
    correct = raw["correct"] and raw["failed"] == 0 and status == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
