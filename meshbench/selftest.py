#!/usr/bin/env python3
"""meshbench self-tests: the benchmark's own checks of its oracle and its
determinism, at each workload's smallest size.

    python3 meshbench/selftest.py

* oracle: each workload runs once correctly (failed_ops = 0) and once with
  one expectation deliberately wrong (a flipped payload stamp, a wrong
  expected sum, a probe expecting kOk across the cut or to a dead rank);
  the wrong expectation must land in failed_ops, exactly once.
* determinism: the same seed twice gives identical deterministic counts,
  modeled spans and sim.digest; a different seed gives different generated
  inputs, which proves the seed reaches the workload.
* refusal: MESHMP_THREADS / MESHMP_TRACE / MESHMP_DIGEST_OUT in the
  environment make the driver exit non-zero without a report.
* bare directory: run.py in a directory holding only BENCHMARK.json and
  meshbench/ exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench

WORKLOADS = ("stream", "halo", "partition", "churn")
# Per-layer metrics measured in host time: they vary run to run by design.
HOST_TIMED = {
    "sim.run_s", "sim.ns_per_event", "mp.build_s", "mp.warmup_s",
    "qmp.iter_host_ms.p50", "qmp.iter_host_ms.p90", "cluster.build_s",
    "cluster.lifecycle.start_s", "topo.bfs_us", "topo.route_est_s",
    "chk.audit_s", "host.cpu_s", "host.nivcsw", "host.minflt",
    "host.trace_overhead_s",
}


def driver(exe, workload, seed, *extra, env=None):
    proc = subprocess.run(
        [str(exe), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--size", "small", "--reps", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, env=env)
    return proc


def report(exe, workload, seed, *extra):
    proc = driver(exe, workload, seed, *extra)
    check(proc.returncode == 0,
          f"{workload}: driver failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        print(f"FAIL {msg}")
        sys.exit(1)


def test_oracle(exe):
    for w in WORKLOADS:
        good = report(exe, w, 1, "--trace", "0")
        check(good["correct"] and good["failed"] == 0,
              f"{w}: clean run reported {good['failed']} failed ops: "
              f"{good['detail']['failures']}")
        bad = report(exe, w, 1, "--trace", "0", "--oracle-fault")
        check(not bad["correct"] and bad["failed"] == 1,
              f"{w}: injected wrong expectation gave failed={bad['failed']}")
        check(bad["attempted"] == good["attempted"],
              f"{w}: the injected run attempted a different number of ops")
        print(f"ok   oracle {w}: {good['attempted']} ops clean, "
              "injected error counted once")


def test_determinism(exe):
    for w in WORKLOADS:
        a = report(exe, w, 7, "--trace", "1")
        b = report(exe, w, 7, "--trace", "1")
        c = report(exe, w, 8, "--trace", "1")
        det = sorted(set(a["metrics"]) - HOST_TIMED)
        diff = [n for n in det
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        check(not diff, f"{w}: same seed, different values for {diff}")
        check(a["attempted"] == b["attempted"],
              f"{w}: same seed, different op counts")
        check(a["detail"]["inputs_digest"] == b["detail"]["inputs_digest"],
              f"{w}: same seed, different generated inputs")
        check(a["detail"]["inputs_digest"] != c["detail"]["inputs_digest"],
              f"{w}: seeds 7 and 8 generated identical inputs")
        print(f"ok   determinism {w}: {len(det)} deterministic metrics "
              "repeat, sim.digest "
              f"{int(a['metrics']['sim.digest']['value']):012x}; "
              "seed 8 changes the inputs")


def test_refusal(exe):
    for var in bench.REFUSED_ENV:
        env = dict(os.environ, **{var: "1"})
        proc = driver(exe, "stream", 1, "--trace", "0", env=env)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"driver ran with {var} set")
    print("ok   refusal: environment knobs are rejected")


def test_bare_directory():
    bare = bench.BUILD_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(bench.BENCH_DIR, bare / "meshbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "meshbench/run.py", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py printed a result without the program's sources")
    print("ok   bare directory: run.py exits non-zero without a result")


def main():
    exe = bench.build()
    test_oracle(exe)
    test_determinism(exe)
    test_refusal(exe)
    test_bare_directory()
    print("meshbench self-tests passed")


if __name__ == "__main__":
    main()
