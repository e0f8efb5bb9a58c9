#!/usr/bin/env python3
"""Repo-invariant linter: structural rules a compiler run cannot express.

Six invariants, each of which has silently rotted in some codebase like
this one and is cheap to pin here:

  headers      Every header under src/ is self-contained: it compiles as
               its own translation unit (g++ -fsyntax-only). A header
               that only builds because every current includer happens to
               include its dependencies first breaks the first new
               includer - and the check_headers cmake target that mirrors
               this rule in the build.

  locking      RAII-only lock discipline. No naked .lock()/.unlock()/
               .try_lock() calls and no raw std::mutex /
               std::condition_variable / std::lock_guard /
               std::unique_lock outside common/thread_safety.hpp: every
               acquisition goes through the capability-annotated Mutex /
               MutexLock / CondVar wrappers so Clang's thread-safety
               analysis sees it. A raw unlock is exactly the hole the
               annotations cannot check through.

  sleeps       No std::this_thread::sleep_for in src/. A sleep in
               library code is either a latency bomb on the hot path or
               a race papered over with a timer; tests may sleep, the
               library may not (block on a CondVar instead).

  backends     Every backend registered in align/backends.cpp appears in
               tests/test_differential.cpp. The differential suite is
               the correctness net for the whole backend matrix; a
               backend outside it is unverified by construction.

  drivers      The asynchronous drivers (align/batch_engine.* and
               align/service.*) run the backend they are handed: they
               include neither align/registry.hpp nor align/hybrid.hpp,
               and nothing under cpu/, pim/, upmem/, wfa/ or map/. A
               driver that builds its own backend from options grows a
               second constructor and option checks for modes it cannot
               serve.

  rule         The WFA rule lives once, in src/wfa/rule.hpp: outside it
               no file under src/ names mismatch_candidate, defines a
               max3 helper, or calls a function with the literal 'X' as
               its only argument (a backtrace emitting a mismatch). The
               host and the DPU kernel must give bit-identical answers;
               a second copy of the recurrence or of the backtrace's
               tie-break is how they drift apart.

Run from the repo root (CI runs it in the lint job):

    python3 tools/lint_invariants.py [--skip-headers]

Exits nonzero listing every violation. When $GITHUB_STEP_SUMMARY is set,
a per-invariant markdown table is appended there (same convention as
tools/check_perf.py).
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# The one file allowed to touch raw std synchronization: it is the
# wrapper everything else must go through.
WRAPPER = Path("src/common/thread_safety.hpp")

LOCK_CALL = re.compile(r"\.\s*(?:try_)?(?:un)?lock\s*\(")
RAW_SYNC = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
SLEEP = re.compile(r"std::this_thread::sleep_for|std::this_thread::sleep_until")
REGISTRY_ADD = re.compile(r'registry\.add\(\s*"([^"]+)"')

# Backend-agnostic drivers and the includes they may not use.
DRIVERS = [Path("src/align") / name for name in (
    "batch_engine.hpp", "batch_engine.cpp", "service.hpp", "service.cpp")]
DRIVER_INCLUDE = re.compile(
    r'#\s*include\s*"((?:align/(?:registry|hybrid)\.hpp)|'
    r'(?:cpu|pim|upmem|wfa|map)/[^"]*)"')

# The one home of the WFA rule, and what may appear nowhere else.
RULE_HOME = Path("src/wfa/rule.hpp")
RULE_COPIES = [
    (re.compile(r"\bmismatch_candidate\b"), "names mismatch_candidate"),
    (re.compile(r"\b(?!return\b)[A-Za-z_][\w:]*[\s*&]+max3\s*[(=]"),
     "defines max3"),
    # An expression statement `f('X');` or `obj.f('X');`, not `return
    # count('X');`.
    (re.compile(r"(?:^|[;{}])\s*[\w.>:-]+\s*\(\s*'X'\s*\)\s*;"),
     "emits a mismatch op"),
]


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments (string literals are rare enough in
    this codebase that the approximation has produced no false positives;
    a lock call quoted in a string would be caught in review)."""
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def iter_source_files(suffixes=(".hpp", ".cpp")):
    for path in sorted(SRC.rglob("*")):
        if path.suffix in suffixes and path.is_file():
            yield path


def check_headers(compiler: str) -> list:
    """Each src/ header must compile standalone."""
    failures = []
    for header in sorted(SRC.rglob("*.hpp")):
        rel = header.relative_to(REPO)
        cmd = [compiler, "-std=c++20", "-fsyntax-only", "-x", "c++",
               "-I", str(SRC), str(header)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["(no output)"])[0]
            failures.append((str(rel), f"not self-contained: {first}"))
    return failures


def check_locking() -> list:
    failures = []
    for path in iter_source_files():
        rel = path.relative_to(REPO)
        if rel == WRAPPER:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if LOCK_CALL.search(line):
                failures.append(
                    (f"{rel}:{lineno}",
                     "naked lock()/unlock()/try_lock() call - use "
                     "MutexLock (RAII) from common/thread_safety.hpp"))
            if RAW_SYNC.search(line):
                failures.append(
                    (f"{rel}:{lineno}",
                     "raw std synchronization primitive - use Mutex/"
                     "MutexLock/CondVar from common/thread_safety.hpp "
                     "so thread-safety analysis sees it"))
    return failures


def check_sleeps() -> list:
    failures = []
    for path in iter_source_files():
        rel = path.relative_to(REPO)
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if SLEEP.search(line):
                failures.append(
                    (f"{rel}:{lineno}",
                     "sleep in library code - block on a CondVar "
                     "(tests may sleep; src/ may not)"))
    return failures


def check_backends() -> list:
    backends_cpp = SRC / "align" / "backends.cpp"
    differential = REPO / "tests" / "test_differential.cpp"
    registered = REGISTRY_ADD.findall(backends_cpp.read_text())
    if not registered:
        return [("src/align/backends.cpp",
                 "no registry.add() calls found - linter pattern stale?")]
    diff_text = differential.read_text()
    failures = []
    for name in registered:
        if f'"{name}"' not in diff_text:
            failures.append(
                (f'backend "{name}"',
                 "registered in align/backends.cpp but never referenced "
                 "in tests/test_differential.cpp - every backend needs "
                 "differential coverage"))
    return failures


def check_drivers() -> list:
    failures = []
    for rel in DRIVERS:
        path = REPO / rel
        if not path.is_file():
            failures.append((str(rel), "driver file missing - linter list "
                                       "stale?"))
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = DRIVER_INCLUDE.search(line)
            if match:
                failures.append(
                    (f"{rel}:{lineno}",
                     f'includes "{match.group(1)}" - drivers take a built '
                     "backend (std::unique_ptr<BatchAligner>) and never "
                     "construct or name a concrete one"))
    return failures


def check_rule() -> list:
    failures = []
    for path in iter_source_files():
        rel = path.relative_to(REPO)
        if rel == RULE_HOME:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            for pattern, what in RULE_COPIES:
                if pattern.search(line):
                    failures.append(
                        (f"{rel}:{lineno}",
                         f"{what} - the recurrence and the backtrace live "
                         f"in {RULE_HOME}; call wfa::rule instead of "
                         "copying it"))
    return failures


def write_step_summary(results: dict) -> None:
    """Appends a per-invariant table to $GITHUB_STEP_SUMMARY when set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Repo invariants (tools/lint_invariants.py)",
        "",
        "| invariant | violations | status |",
        "| --- | --- | --- |",
    ]
    for name, failures in results.items():
        if failures is None:
            lines.append(f"| {name} | - | ⏭️ skipped |")
        else:
            icon = "✅ OK" if not failures else f"❌ {len(failures)}"
            lines.append(f"| {name} | {len(failures or [])} | {icon} |")
    lines.append("")
    for name, failures in results.items():
        for where, what in failures or []:
            lines.append(f"- `{where}`: {what}")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-headers", action="store_true",
                        help="skip the (compiler-invoking, slower) header "
                             "self-containment check")
    parser.add_argument("--compiler", default=os.environ.get("CXX", "g++"),
                        help="compiler for the header check (default $CXX "
                             "or g++)")
    args = parser.parse_args()

    results = {
        "headers": None if args.skip_headers else check_headers(args.compiler),
        "locking": check_locking(),
        "sleeps": check_sleeps(),
        "backends": check_backends(),
        "drivers": check_drivers(),
        "rule": check_rule(),
    }

    worst = 0
    for name, failures in results.items():
        if failures is None:
            print(f"[lint] {name:9} skipped")
            continue
        status = "OK" if not failures else f"{len(failures)} violation(s)"
        print(f"[lint] {name:9} {status}")
        for where, what in failures:
            print(f"    {where}: {what}")
            worst = 1
    write_step_summary(results)
    return worst


if __name__ == "__main__":
    sys.exit(main())
