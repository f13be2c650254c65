#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json against checked-in baselines.

The simulator is deterministic, so every modeled number (result rows and the
metrics-registry snapshot) must match its baseline *exactly* — any drift means
the model changed and the baseline must be re-recorded deliberately. Host
wall-clock is the only machine-dependent field; it gets a ratio budget so the
gate still catches order-of-magnitude simulator-throughput regressions
without flaking on slower CI machines.

With --additive-metrics, metric keys that exist only in the fresh report are
allowed (listed as NEW, not fatal): a PR that adds a counter or histogram
shouldn't spuriously break the gate. Removed keys and value drift on shared
keys stay fatal either way; result rows are always compared exactly.

Metric groups under the "host." prefix (counters.host.*, histograms.host.*)
are host-time-derived telemetry — events/sec, queue depth high-water marks —
published by BenchReport alongside the modeled numbers. They are
machine-dependent by construction, so the gate treats them as informational
in both directions: never a byte-identity failure, whether they drift, appear
or disappear.

Usage:
  tools/bench_diff.py --baseline-dir bench/baselines --fresh-dir . \
      [--host-ratio 25.0] [--additive-metrics] [--write-report diff_report.txt]

Exit status: 0 when every baseline matches, 1 on any mismatch or missing
fresh report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def flatten_metrics(metrics):
    """Metrics snapshot -> sorted list of (dotted-key, value) leaves."""
    out = []
    for name, val in sorted(metrics.get("counters", {}).items()):
        out.append((f"counters.{name}", val))
    for name, summary in sorted(metrics.get("histograms", {}).items()):
        for field, val in sorted(summary.items()):
            out.append((f"histograms.{name}.{field}", val))
    return out


def diff_rows(base_rows, fresh_rows):
    """Exact row diff -> list of (where, baseline, fresh) mismatches."""
    bad = []
    if len(base_rows) != len(fresh_rows):
        bad.append(("row count", len(base_rows), len(fresh_rows)))
    for i, (b, f) in enumerate(zip(base_rows, fresh_rows)):
        keys = sorted(set(b) | set(f))
        for k in keys:
            bv, fv = b.get(k, "<missing>"), f.get(k, "<missing>")
            if bv != fv:
                bad.append((f"row[{i}].{k}", bv, fv))
    return bad


def is_host_metric(key):
    """True for host-time-derived leaves: informational, never gated."""
    return key.startswith("counters.host.") or key.startswith("histograms.host.")


def diff_metrics(base, fresh, additive=False):
    """Returns (fatal mismatches, additive-tolerated keys, host-info keys)."""
    bad, new, host = [], [], []
    bleaves = dict(flatten_metrics(base))
    fleaves = dict(flatten_metrics(fresh))
    for k in sorted(set(bleaves) | set(fleaves)):
        if is_host_metric(k):
            host.append(k)
            continue
        if additive and k not in bleaves:
            new.append(k)
            continue
        bv = bleaves.get(k, "<missing>")
        fv = fleaves.get(k, "<missing>")
        if bv != fv:
            bad.append((f"metrics.{k}", bv, fv))
    return bad, new, host


def fmt_table(title, mismatches, limit=20):
    lines = [title]
    w = max((len(str(m[0])) for m in mismatches[:limit]), default=10)
    lines.append(f"  {'where':<{w}}  {'baseline':>16}  {'fresh':>16}")
    for where, bv, fv in mismatches[:limit]:
        lines.append(f"  {str(where):<{w}}  {str(bv):>16}  {str(fv):>16}")
    if len(mismatches) > limit:
        lines.append(f"  ... and {len(mismatches) - limit} more")
    return "\n".join(lines)


def check_bench(name, base_path, fresh_path, host_ratio, additive, report):
    base = load(base_path)
    fresh = load(fresh_path)
    mism = diff_rows(base.get("rows", []), fresh.get("rows", []))
    metric_mism, new_keys, host_keys = diff_metrics(
        base.get("metrics", {}), fresh.get("metrics", {}), additive)
    mism += metric_mism

    host_note = ""
    bh, fh = base.get("host_seconds", 0.0), fresh.get("host_seconds", 0.0)
    if bh > 0 and fh > bh * host_ratio:
        mism.append(("host_seconds", f"{bh:.3f}", f"{fh:.3f} (> {host_ratio:g}x budget)"))
    elif bh > 0:
        host_note = f" (host {fh:.2f}s vs baseline {bh:.2f}s, budget {host_ratio:g}x)"

    if mism:
        report.append(fmt_table(f"FAIL {name}: {len(mism)} mismatched value(s)", mism))
        return False
    gated = [k for k, _ in flatten_metrics(base.get("metrics", {}))
             if not is_host_metric(k)]
    report.append(f"PASS {name}: {len(base.get('rows', []))} rows exact, "
                  f"{len(gated)} metric leaves exact{host_note}")
    if host_keys:
        fleaves = dict(flatten_metrics(fresh.get("metrics", {})))
        shown = [k for k in host_keys if k in fleaves]
        vals = ", ".join(f"{k.split('.', 1)[1]}={fleaves[k]}" for k in shown[:4])
        report.append(f"  HOST {name}: {len(host_keys)} host metric leaf(s), "
                      f"informational only ({vals})")
    if new_keys:
        report.append(f"  NEW  {name}: {len(new_keys)} metric leaf(s) not in the "
                      "baseline (allowed by --additive-metrics; re-record to adopt):")
        for k in new_keys[:20]:
            report.append(f"       + {k}")
        if len(new_keys) > 20:
            report.append(f"       ... and {len(new_keys) - 20} more")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--fresh-dir", default=".")
    ap.add_argument("--host-ratio", type=float, default=25.0,
                    help="fresh host_seconds may be at most this multiple of baseline")
    ap.add_argument("--additive-metrics", action="store_true",
                    help="tolerate metric keys that exist only in the fresh "
                         "report (new counters/histograms); removals and value "
                         "drift stay fatal")
    ap.add_argument("--write-report", default=None,
                    help="also write the human-readable diff report to this file")
    ap.add_argument("benches", nargs="*",
                    help="bench names (default: every BENCH_*.json in --baseline-dir)")
    args = ap.parse_args()

    if args.benches:
        names = args.benches
    else:
        names = sorted(
            f[len("BENCH_"):-len(".json")]
            for f in os.listdir(args.baseline_dir)
            if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print(f"bench_diff: no baselines found in {args.baseline_dir}", file=sys.stderr)
        return 1

    report = []
    ok = True
    for name in names:
        base_path = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
        fresh_path = os.path.join(args.fresh_dir, f"BENCH_{name}.json")
        if not os.path.exists(base_path):
            report.append(f"FAIL {name}: missing baseline {base_path}")
            ok = False
            continue
        if not os.path.exists(fresh_path):
            report.append(f"FAIL {name}: bench did not produce {fresh_path}")
            ok = False
            continue
        ok &= check_bench(name, base_path, fresh_path, args.host_ratio,
                          args.additive_metrics, report)

    text = "\n".join(report)
    print(text)
    if args.write_report:
        with open(args.write_report, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
