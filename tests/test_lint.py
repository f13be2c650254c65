#!/usr/bin/env python3
"""Self-test for tools/meshmp_lint.py, registered with ctest.

Four gates:
  1. Fixture conformance — every tests/lint_fixtures/*.cpp line tagged
     LINT-EXPECT[RULE] must produce exactly that finding, and no untagged
     line may produce any. This asserts both directions: each rule fires on
     its known-bad shape, and each suppression/legal variant stays silent.
  2. src/ stays lint-clean (exit 0, zero findings) with the checked-in
     allowlist.
  3. The allowlist mechanism filters a finding (and only that finding).
  4. R4 has no exempt layer: the threading fixture copied under sim/ and
     chk/ directories reports the same findings.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(ROOT, "tools", "meshmp_lint.py")
FIXTURE_DIR = os.path.join(ROOT, "tests", "lint_fixtures")

EXPECT_RE = re.compile(r"LINT-EXPECT\[([A-Z]\d)\]")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([A-Z]\d)\]")

failures = []


def check(ok, label):
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


def run_lint(files, allowlist=os.devnull):
    cmd = [sys.executable, LINT, "--engine", "text", "--quiet",
           "--allowlist", allowlist] + files
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add(
                (os.path.basename(m.group(1)), int(m.group(2)), m.group(3)))
    return proc.returncode, findings


def expected_findings(path):
    out = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for rule in EXPECT_RE.findall(line):
                out.add((os.path.basename(path), lineno, rule))
    return out


def main():
    fixtures = sorted(
        os.path.join(FIXTURE_DIR, n)
        for n in os.listdir(FIXTURE_DIR) if n.endswith(".cpp"))
    check(len(fixtures) >= 5, f"found {len(fixtures)} fixtures (>= 5)")

    # Gate 1: each fixture yields exactly its tagged findings.
    for path in fixtures:
        name = os.path.basename(path)
        expected = expected_findings(path)
        code, actual = run_lint([path])
        missing = expected - actual
        surprise = actual - expected
        check(not missing, f"{name}: every tagged rule fires"
              + (f" (missing {sorted(missing)})" if missing else ""))
        check(not surprise, f"{name}: suppressed/legal lines stay silent"
              + (f" (unexpected {sorted(surprise)})" if surprise else ""))
        want_code = 1 if expected else 0
        check(code == want_code, f"{name}: exit code {code} == {want_code}")

    rules_covered = {r for p in fixtures for _, _, r in expected_findings(p)}
    check(rules_covered >= {"D1", "D2", "D3", "C1", "R4", "H1"},
          f"fixtures cover all rules ({sorted(rules_covered)})")

    # Gate 2: the real tree is clean under the checked-in allowlist.
    code, findings = run_lint(
        [], allowlist=os.path.join("tools", "meshmp_lint_allowlist.txt"))
    check(code == 0 and not findings,
          f"src/ is lint-clean (exit {code}, {len(findings)} findings)")

    # Gate 2b: the gray-failure fault/score path specifically is free of
    # wall-clock randomness (D2). These files hold every die roll and window
    # edge of the gray campaigns — flaky drop/dup/reorder decisions, quality
    # EWMA sampling, phi timeouts — and the run-twice / golden digest
    # guarantees are only as good as this gate. Run WITHOUT the allowlist so
    # a future allowlist entry can never quietly exempt them.
    gray_files = [
        os.path.join("src", "flt", "fault.cpp"),
        os.path.join("src", "flt", "fault.hpp"),
        os.path.join("src", "net", "quality.hpp"),
        os.path.join("src", "cluster", "lifecycle.cpp"),
    ]
    code, findings = run_lint(gray_files)
    d2 = {f for f in findings if f[2] == "D2"}
    check(code == 0 and not d2,
          f"gray flt/score code has no wall-clock randomness "
          f"(exit {code}, {len(d2)} D2 findings)")

    # Gate 3: an allowlist entry filters exactly the finding it names.
    bad_copy = os.path.join(FIXTURE_DIR, "bad_copy.cpp")
    rel = os.path.relpath(bad_copy, ROOT)
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("# fixture allowlist for test_lint.py\n")
        f.write(f"C1 {rel} std::memcpy(dst, src, n);  // LINT-EXPECT\n")
        allow = f.name
    try:
        _, unfiltered = run_lint([bad_copy])
        code, filtered = run_lint([bad_copy], allowlist=allow)
        # Both tagged memcpy C1 lines contain the allowlisted substring; the
        # std::copy finding must survive.
        dropped = unfiltered - filtered
        check(dropped and all(r == "C1" for _, _, r in dropped),
              f"allowlist drops matching findings ({sorted(dropped)})")
        with open(bad_copy, encoding="utf-8") as f:
            lines = f.read().splitlines()
        copy_line = next(i + 1 for i, l in enumerate(lines)
                         if "std::copy(" in l and "LINT-EXPECT" in l)
        check(("bad_copy.cpp", copy_line, "C1") in filtered,
              "std::copy finding survives an unrelated allowlist entry")
    finally:
        os.unlink(allow)

    # Gate 4: the engine core is not exempt from R4 — the same fixture under
    # a sim/ (or chk/) path component must report exactly the same lines.
    threading = os.path.join(FIXTURE_DIR, "bad_threading.cpp")
    want = {(line, rule) for _, line, rule in expected_findings(threading)}
    with tempfile.TemporaryDirectory() as tmp:
        for layer in ("sim", "chk"):
            os.makedirs(os.path.join(tmp, layer))
            copy = os.path.join(tmp, layer, "bad_threading.cpp")
            shutil.copy(threading, copy)
            code, got = run_lint([copy])
            got = {(line, rule) for _, line, rule in got}
            check(code == 1 and got == want,
                  f"R4 fires under {layer}/ ({len(got)} of {len(want)} "
                  f"findings)")

    if failures:
        print(f"\n{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
