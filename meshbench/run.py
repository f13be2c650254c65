#!/usr/bin/env python3
"""meshbench entry point: build the driver from source, run one workload in
its own process, check its metrics against BENCHMARK.json, print them.

    python3 meshbench/run.py --workload <stream|halo|partition|churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
meshbench/ (which compiles ../src) into .bench_build/; later runs only
re-check the build. Extra arguments (--size small, --reps N,
--oracle-fault) are passed to the driver unchanged.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The driver's full report (per-rep times,
spans, input digest) is written to .bench_out/.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "meshbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
REFUSED_ENV = ("MESHMP_THREADS", "MESHMP_TRACE", "MESHMP_DIGEST_OUT")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"meshbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no meshmp sources under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    log = sys.stderr.fileno()  # keep stdout for the result line
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        rc = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log).returncode
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "meshbench",
         "-j", "4"], stdout=log).returncode
    if rc != 0:
        fail("build failed")
    return BUILD_DIR / "meshbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(exe, argv):
    """Runs the driver; returns its report (the last stdout line)."""
    try:
        proc = subprocess.run([str(exe), *argv], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no report")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()
    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set; unset it so the benchmark "
                 "measures the sequential, untraced engine")

    exe = build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    report = run_driver(exe, argv)

    want = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        unexpected = sorted(set(got) - set(want))
        wrong_unit = sorted(n for n in set(want) & set(got)
                            if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {unexpected}, wrong unit {wrong_unit}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in sorted(report["metrics"].items()):
        print(f"# {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: report[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


if __name__ == "__main__":
    main()
