#!/usr/bin/env python3
"""meshmp-lint: project-invariant static analysis for the meshmp simulator.

Enforces four rule families over src/ (see DESIGN.md section 11):

Determinism
  D1  no std::unordered_{map,set,multimap,multiset}: iteration order depends
      on hash seeding and insertion history, which is a determinism bug in
      simulation-affecting code. Use chk::FlatMap / chk::FlatSet / std::map.
      Suppress: // meshmp-lint: unordered-ok(<reason>)
  D2  no wall-clock or libc randomness: std::chrono clocks, ::time,
      gettimeofday, clock_gettime, std::rand/srand, std::random_device.
      Simulated time comes from sim::Engine::now(); randomness from sim::Rng.
      Suppress: // meshmp-lint: host-time(<reason>)
  D3  no pointer-keyed associative containers: address order is not stable
      across runs, so a pointer key makes iteration order (and any "first
      match" logic) nondeterministic.
      Suppress: // meshmp-lint: ptr-key-ok(<reason>)

Copy accounting
  C1  every memcpy / std::copy must either sit in the same statement block as
      a buf::charge_copy() call (the modeled-copy pairing) or carry an
      explicit annotation:
        // meshmp-lint: host-copy(<reason>)     simulation-artifact copy
        // meshmp-lint: charged-copy(<reason>)  billed by a named caller
      An annotation (or charge) covers matches on its own line and on
      following lines of the same contiguous block: up to {WINDOW} lines with
      no blank line in between.

Single-threaded simulation
  R4  no raw threading primitives (std::thread, std::mutex and friends,
      std::condition_variable, std::atomic*, lock helpers, futures, or
      their headers) anywhere under src/: the engine is one sequential
      event loop and nothing in the library starts a thread, so a raw
      primitive is either dead weight or the start of an unsynchronized
      second thread that the determinism model does not cover.
      Suppress: // meshmp-lint: raw-threading-ok(<reason>)

Hot path
  H1  no std::function in the event-scheduling hot path: anywhere under
      src/sim/ (the engine core schedules millions of events; std::function
      heap-allocates once a capture outgrows its SSO buffer — use
      sim::InlineFn), and in any statement block that calls schedule() /
      schedule_at() / post() elsewhere under src/ (a std::function built
      just to be scheduled reintroduces the per-event allocation the
      InlineFn refactor removed). Long-lived callback sinks (link/NIC
      delivery hooks, error handlers) away from scheduling calls are fine.
      Suppress: // meshmp-lint: std-function-ok(<reason>)

Engines: with python clang bindings and a compile_commands.json the D-rules
run on the AST (macro- and comment-proof); otherwise a conservative text
engine covers everything. C1 is comment-scoped by design and always runs
on text. Findings print as path:line: [RULE] message; exit 1 on any finding
not covered by the allowlist (tools/meshmp_lint_allowlist.txt: lines of
"<RULE> <path> <substring-of-offending-line>", # comments allowed).

Usage:
  tools/meshmp_lint.py [--src-dir src] [--build-dir build]
                       [--engine auto|ast|text] [--allowlist FILE] [files...]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

WINDOW = 12  # max lines a charge/annotation covers within a contiguous block

SUPPRESS_RE = re.compile(
    r"meshmp-lint:\s*"
    r"(host-copy|charged-copy|unordered-ok|ptr-key-ok|host-time"
    r"|std-function-ok|raw-threading-ok)"
    r"\s*\(")
COMMENT_RE = re.compile(r"//.*$")

UNORDERED_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b"
                          r'|[<"]unordered_(map|set)[">]')
WALLCLOCK_RE = re.compile(
    r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bstd::(rand|srand|random_device)\b"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
    r"|(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)")
# Pointer-typed FIRST template argument of an associative container.
PTRKEY_RE = re.compile(
    r"\b(?:chk::)?(?:FlatMap|FlatSet)<\s*[^,<>]*\*\s*[,>]"
    r"|\bstd::(?:map|set|multimap|multiset)<\s*[^,<>]*\*\s*[,>]")
COPY_RE = re.compile(r"\b(?:std::)?memcpy\s*\(|\bstd::copy\s*\(")
STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")
RAW_THREADING_RE = re.compile(
    r"\bstd::(?:jthread|thread|timed_mutex|recursive_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex|shared_mutex|mutex"
    r"|condition_variable_any|condition_variable|atomic\w*|memory_order\w*"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock|call_once|once_flag"
    r"|barrier|latch|counting_semaphore|binary_semaphore|stop_token"
    r"|future|shared_future|promise|packaged_task|async"
    r"|this_thread::\w+)\b")
THREADING_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*<(?:thread|mutex|shared_mutex|condition_variable"
    r"|atomic|barrier|latch|semaphore|future|stop_token)>")
SCHEDULE_CALL_RE = re.compile(
    r"(?:\bschedule(?:_at)?|(?<![\w.])post|[.>]post)\s*\(")
CHARGE_RE = re.compile(r"\bcharge_copy\s*(?:<[^>]*>)?\(")

BANNED_CALLS = {
    "rand": "D2", "srand": "D2", "time": "D2", "gettimeofday": "D2",
    "clock_gettime": "D2",
}
BANNED_TYPES = {
    "std::unordered_map": "D1", "std::unordered_set": "D1",
    "std::unordered_multimap": "D1", "std::unordered_multiset": "D1",
    "std::random_device": "D2",
    "std::chrono::system_clock": "D2",
    "std::chrono::steady_clock": "D2",
    "std::chrono::high_resolution_clock": "D2",
}


class Finding:
    def __init__(self, rule, path, line, message, text=""):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based
        self.message = message
        self.text = text  # offending source line, for allowlist matching

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comment(line):
    return COMMENT_RE.sub("", line)


def block_has(lines, idx, pattern, comment_ok):
    """True when `pattern` matches on line idx or an earlier line of the same
    contiguous (blank-line-free) block, at most WINDOW lines up.
    comment_ok: match inside comments too (annotations) or only in code."""
    for j in range(idx, max(-1, idx - WINDOW - 1), -1):
        if j < 0:
            return False
        if j != idx and not lines[j].strip():
            return False  # blank line ends the block
        hay = lines[j] if comment_ok else strip_comment(lines[j])
        if pattern.search(hay):
            return True
    return False


def suppressed(lines, idx, kinds):
    """True when a meshmp-lint suppression of one of `kinds` covers line idx."""
    for j in range(idx, max(-1, idx - WINDOW - 1), -1):
        if j < 0:
            return False
        if j != idx and not lines[j].strip():
            return False
        m = SUPPRESS_RE.search(lines[j])
        if m and m.group(1) in kinds:
            return True
    return False


# --------------------------------------------------------------------------
# Text engine
# --------------------------------------------------------------------------

def check_determinism_text(path, lines):
    out = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if UNORDERED_RE.search(code) and not suppressed(
                lines, i, ("unordered-ok",)):
            out.append(Finding(
                "D1", path, i + 1,
                "unordered container in simulation code: iteration order is "
                "hash-layout-dependent; use chk::FlatMap/FlatSet or std::map "
                "(or annotate unordered-ok)", raw))
        if WALLCLOCK_RE.search(code) and not suppressed(
                lines, i, ("host-time",)):
            out.append(Finding(
                "D2", path, i + 1,
                "wall-clock/libc randomness in simulation code: use "
                "sim::Engine::now() / sim::Rng (or annotate host-time)", raw))
        if PTRKEY_RE.search(code) and not suppressed(
                lines, i, ("ptr-key-ok",)):
            out.append(Finding(
                "D3", path, i + 1,
                "pointer-keyed associative container: address order is not "
                "stable across runs (or annotate ptr-key-ok)", raw))
    return out


def block_has_near(lines, idx, pattern):
    """True when `pattern` matches in code within the same contiguous
    (blank-line-free) block as line idx, scanning both directions up to
    WINDOW lines: a scheduled callable can be built before the call or span
    lines inside it."""
    if block_has(lines, idx, pattern, comment_ok=False):
        return True
    for j in range(idx + 1, min(len(lines), idx + WINDOW + 1)):
        if not lines[j].strip():
            return False
        if pattern.search(strip_comment(lines[j])):
            return True
    return False


def in_sim_core(path):
    parts = os.path.normpath(path).split(os.sep)
    return "sim" in parts


def check_raw_threading(path, lines):
    out = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if not (RAW_THREADING_RE.search(code)
                or THREADING_INCLUDE_RE.search(code)):
            continue
        if suppressed(lines, i, ("raw-threading-ok",)):
            continue
        out.append(Finding(
            "R4", path, i + 1,
            "raw threading primitive: the simulator is single-threaded "
            "by design; use plain state owned by the engine's event loop "
            "(or annotate raw-threading-ok)",
            raw))
    return out


def check_hot_path(path, lines):
    out = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if not STD_FUNCTION_RE.search(code):
            continue
        if suppressed(lines, i, ("std-function-ok",)):
            continue
        if in_sim_core(path):
            out.append(Finding(
                "H1", path, i + 1,
                "std::function in the engine core (src/sim/): the event hot "
                "path must use sim::InlineFn — std::function heap-allocates "
                "past its SSO buffer (or annotate std-function-ok)", raw))
        elif block_has_near(lines, i, SCHEDULE_CALL_RE):
            out.append(Finding(
                "H1", path, i + 1,
                "std::function in a schedule()/schedule_at()/post() call "
                "path: scheduled callables must be sim::InlineFn-sized — "
                "use a small struct or captureless lambda (or annotate "
                "std-function-ok)", raw))
    return out


def check_copy_accounting(path, lines):
    out = []
    for i, raw in enumerate(lines):
        code = strip_comment(raw)
        if not COPY_RE.search(code):
            continue
        if suppressed(lines, i, ("host-copy", "charged-copy")):
            continue
        if block_has(lines, i, CHARGE_RE, comment_ok=False):
            continue
        out.append(Finding(
            "C1", path, i + 1,
            "memcpy/std::copy without a charge_copy() in the same block: "
            "bill it via buf::charge_copy or annotate "
            "host-copy(<reason>) / charged-copy(<reason>)", raw))
    return out


# --------------------------------------------------------------------------
# AST engine (libclang; optional)
# --------------------------------------------------------------------------

def load_cindex():
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def ast_findings(cindex, comp_db_dir, files):
    """D1/D2/D3 on the AST. Returns (findings, analyzed_files) or None when
    the compilation database cannot be loaded."""
    try:
        db = cindex.CompilationDatabase.fromDirectory(comp_db_dir)
    except Exception:
        return None
    index = cindex.Index.create()
    out, analyzed = [], set()
    wanted = {os.path.abspath(f) for f in files}
    for cmd in db.getAllCompileCommands() or []:
        src = os.path.abspath(os.path.join(cmd.directory, cmd.filename))
        args = [a for a in list(cmd.arguments)[1:]
                if a not in (cmd.filename, src, "-c", "-o")]
        # Drop the object-file operand of -o.
        cleaned, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a == "-o":
                skip = True
                continue
            cleaned.append(a)
        try:
            tu = index.parse(src, args=cleaned)
        except Exception:
            continue
        for cur in tu.cursor.walk_preorder():
            loc = cur.location
            if loc.file is None:
                continue
            fpath = os.path.abspath(loc.file.name)
            if fpath not in wanted:
                continue
            analyzed.add(fpath)
            rel = os.path.relpath(fpath)
            try:
                lines = open(fpath, encoding="utf-8").read().splitlines()
            except OSError:
                continue
            i = loc.line - 1
            if cur.kind == cindex.CursorKind.TYPE_REF or \
                    cur.kind == cindex.CursorKind.TEMPLATE_REF:
                name = cur.spelling or ""
                for t, rule in BANNED_TYPES.items():
                    if t.endswith(name) and name:
                        kinds = ("unordered-ok",) if rule == "D1" else (
                            "host-time",)
                        if not suppressed(lines, i, kinds):
                            out.append(Finding(
                                rule, rel, loc.line,
                                f"banned type {t} (AST)", lines[i]))
            elif cur.kind == cindex.CursorKind.CALL_EXPR:
                if cur.spelling in BANNED_CALLS and not suppressed(
                        lines, i, ("host-time",)):
                    out.append(Finding(
                        "D2", rel, loc.line,
                        f"banned call {cur.spelling}() (AST)", lines[i]))
    return out, analyzed


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_files(src_dir, explicit):
    if explicit:
        return sorted(explicit)
    out = []
    for root, _dirs, names in os.walk(src_dir):
        for n in sorted(names):
            if n.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(root, n))
    return out


def load_allowlist(path):
    entries = []
    if not path or not os.path.exists(path):
        return entries
    for raw in open(path, encoding="utf-8"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) == 3:
            entries.append(tuple(parts))
    return entries


def allowlisted(finding, entries):
    for rule, path, token in entries:
        if rule == finding.rule and path == finding.path and \
                token in finding.text:
            return True
    return False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src-dir", default="src")
    ap.add_argument("--build-dir", default="build",
                    help="directory holding compile_commands.json")
    ap.add_argument("--engine", choices=("auto", "ast", "text"),
                    default="auto")
    ap.add_argument("--allowlist",
                    default=os.path.join("tools",
                                         "meshmp_lint_allowlist.txt"))
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="restrict to these files (default: all of src/)")
    args = ap.parse_args(argv)

    files = collect_files(args.src_dir, args.files)
    if not files:
        print(f"meshmp-lint: no sources under {args.src_dir}",
              file=sys.stderr)
        return 2

    findings = []
    cindex = None if args.engine == "text" else load_cindex()
    ast_cover = set()
    engine = "text"
    if cindex is not None:
        cc = os.path.join(args.build_dir, "compile_commands.json")
        if os.path.exists(cc):
            res = ast_findings(cindex, args.build_dir, files)
            if res is not None:
                ast_out, ast_cover = res
                findings.extend(ast_out)
                engine = "ast+text"
    if args.engine == "ast" and engine == "text":
        print("meshmp-lint: --engine ast requested but python clang "
              "bindings or compile_commands.json are unavailable",
              file=sys.stderr)
        return 2

    for path in files:
        try:
            lines = open(path, encoding="utf-8").read().splitlines()
        except OSError as e:
            print(f"meshmp-lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        rel = os.path.relpath(path)
        if os.path.abspath(path) not in ast_cover:
            findings.extend(check_determinism_text(rel, lines))
        findings.extend(check_copy_accounting(rel, lines))
        findings.extend(check_hot_path(rel, lines))
        findings.extend(check_raw_threading(rel, lines))

    entries = load_allowlist(args.allowlist)
    kept, allowed = [], 0
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        if allowlisted(f, entries):
            allowed += 1
            continue
        kept.append(f)

    for f in kept:
        print(f)
    if not args.quiet:
        note = f", {allowed} allowlisted" if allowed else ""
        print(f"meshmp-lint [{engine}]: {len(files)} file(s), "
              f"{len(kept)} finding(s){note}", file=sys.stderr)
    return 1 if kept else 0


if __name__ == "__main__":
    sys.exit(main())
