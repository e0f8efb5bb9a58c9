#!/usr/bin/env python3
"""Gate CI on benchmark regressions.

Compares metrics from one or more pimwfa-bench-v1 JSON reports
(bench/* --json=...) against checked-in baseline numbers and fails when a
gated metric regresses by more than the allowed fraction. Only
deterministic metrics belong in the baseline - modeled numbers for a
given seed and configuration, and measured quantities such as peak RSS
that do not move with runner speed - so a regression is a code change,
not runner noise.

Usage:
  tools/check_perf.py --report BENCH_pipeline.json \
      [--report BENCH_hybrid.json ...] \
      --baseline ci/perf_baseline.json [--max-regress 0.25]

Baseline schema (ci/perf_baseline.json):
  { "<bench name>": { "<metric>": <expected value>, ... }, ... }

Higher metric values are assumed better (throughputs, speedups, ratios);
gate on those, not on raw seconds. A metric may instead be pinned to an
exact value with {"equals": <value>} - used for structural invariants
like hybrid/bases_copied == 0, where any deviation (in either direction)
is a regression, not noise - or capped with {"max": <value>} for
lower-is-better quantities like peak_rss_mb, where the value itself is
the ceiling and --max-regress does not apply.

When $GITHUB_STEP_SUMMARY is set (every GitHub Actions step), the gated
rows are also appended there as a markdown table, so the numbers are
readable from the run page without digging through logs.
"""

import argparse
import json
import os
import sys


def check_report(path: str, baselines: dict, max_regress: float,
                 rows: list) -> int:
    """Gates one report; returns 0 (ok), 1 (regressed) or 2 (bad input).

    Appends one row per gated metric to `rows`:
    (bench, metric, actual, requirement, status).
    """
    with open(path) as handle:
        report = json.load(handle)

    if report.get("schema") != "pimwfa-bench-v1":
        print(f"check_perf: {path} is not a pimwfa-bench-v1 report",
              file=sys.stderr)
        return 2

    bench = report.get("bench", "")
    gated = baselines.get(bench)
    if not gated:
        print(f"check_perf: no baseline entries for bench '{bench}'",
              file=sys.stderr)
        return 2

    metrics = report.get("metrics", {})
    failures = []
    for name, expected in gated.items():
        entry = metrics.get(name)
        if entry is None or entry.get("value") is None:
            failures.append(f"{name}: missing from report")
            rows.append((bench, name, "missing", "present", "MISSING"))
            continue
        actual = entry["value"]
        if isinstance(expected, dict) and "max" in expected:
            ceiling = expected["max"]
            status = "OK" if actual <= ceiling else "REGRESSED"
            print(f"  {bench}/{name}: {actual:.4f} vs ceiling "
                  f"{ceiling:.4f} {status}")
            rows.append((bench, name, f"{actual:.4f}", f"<= {ceiling:.4f}",
                         status))
            if actual > ceiling:
                failures.append(
                    f"{name}: {actual:.4f} > ceiling {ceiling:.4f}")
            continue
        if isinstance(expected, dict):
            if "equals" not in expected:
                failures.append(
                    f"{name}: unrecognized baseline spec {expected!r} "
                    f"(only {{\"equals\": <value>}} and {{\"max\": <value>}} "
                    f"are supported)")
                continue
            target = expected["equals"]
            status = "OK" if actual == target else "REGRESSED"
            print(f"  {bench}/{name}: {actual:.4f} must equal "
                  f"{target:.4f} {status}")
            rows.append((bench, name, f"{actual:.4f}", f"= {target:.4f}",
                         status))
            if actual != target:
                failures.append(
                    f"{name}: {actual:.4f} != required {target:.4f}")
            continue
        floor = expected * (1.0 - max_regress)
        status = "OK" if actual >= floor else "REGRESSED"
        print(f"  {bench}/{name}: {actual:.4f} vs baseline "
              f"{expected:.4f} (floor {floor:.4f}) {status}")
        rows.append((bench, name, f"{actual:.4f}",
                     f">= {floor:.4f} (baseline {expected:.4f})", status))
        if actual < floor:
            failures.append(
                f"{name}: {actual:.4f} < {floor:.4f} "
                f"(baseline {expected:.4f} - {max_regress:.0%})")

    if failures:
        print(f"check_perf: {bench} regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_perf: {bench} within {max_regress:.0%} of baseline "
          f"({len(gated)} gated metric{'s' if len(gated) != 1 else ''})")
    return 0


def write_step_summary(rows: list, max_regress: float) -> None:
    """Appends the gated rows to $GITHUB_STEP_SUMMARY when set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not rows:
        return
    lines = [
        f"### Perf gate (max regress {max_regress:.0%})",
        "",
        "| bench | metric | actual | requirement | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    for bench, metric, actual, requirement, status in rows:
        icon = "✅" if status == "OK" else "❌"
        lines.append(f"| {bench} | {metric} | {actual} | {requirement} | "
                     f"{icon} {status} |")
    lines.append("")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True, action="append",
                        help="BenchReport JSON emitted by a bench binary "
                             "(repeatable)")
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args()

    with open(args.baseline) as handle:
        baselines = json.load(handle)

    worst = 0
    rows = []
    for path in args.report:
        worst = max(worst, check_report(path, baselines, args.max_regress,
                                        rows))
    write_step_summary(rows, args.max_regress)
    return worst


if __name__ == "__main__":
    sys.exit(main())
