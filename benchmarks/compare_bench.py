#!/usr/bin/env python
"""Diff two BENCH_*.json files and fail on kernel regressions.

Compares every kernel present in both files and exits nonzero when any
kernel regressed by more than the threshold (default 20%), so CI can gate
perf the same way it gates correctness.  Two metrics:

* ``fast_median_s`` (default) — absolute fast-path median seconds; right
  when baseline and candidate were timed on the same machine (local
  ``make bench-compare``).
* ``speedup`` — the fast-vs-legacy ratio measured *within* each run, which
  cancels the machine's absolute speed; right when the baseline JSON comes
  from different hardware (the CI gate, ``make bench-compare-ci``).  A
  regression is a drop of the speedup by more than the threshold.  Only the
  rows that carry a ``speedup`` in both files are gated; single-leg rows
  (one implementation, no baseline leg) are listed as not gated.

Usage, from the repo root::

    PYTHONPATH=src python benchmarks/compare_bench.py OLD.json NEW.json

Exit 0 when nothing regressed, 1 on a regression, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def compare_benchmarks(
    old: Dict, new: Dict, threshold: float = 0.2, metric: str = "fast_median_s"
) -> Tuple[List[str], List[str]]:
    """Return ``(report_lines, regressions)`` for two results dictionaries."""
    if metric not in ("fast_median_s", "speedup"):
        raise ValueError(f"unknown metric {metric!r}")
    report: List[str] = []
    regressions: List[str] = []
    old_kernels = old.get("kernels", {})
    new_kernels = new.get("kernels", {})
    shared = [name for name in old_kernels if name in new_kernels]
    if not shared:
        raise ValueError("the two benchmark files share no kernels")
    ungated: List[str] = []
    if metric == "speedup":
        ungated = [
            name for name in shared
            if metric not in old_kernels[name] or metric not in new_kernels[name]
        ]
        shared = [name for name in shared if name not in ungated]
        if not shared:
            raise ValueError("no kernel carries a 'speedup' entry in both files")
    width = max(len(name) for name in shared)
    for name in shared:
        if metric not in old_kernels[name] or metric not in new_kernels[name]:
            raise ValueError(
                f"kernel {name!r} has no {metric!r} entry (baseline predates "
                "this metric? regenerate it with `make bench`)"
            )
        old_value = float(old_kernels[name][metric])
        new_value = float(new_kernels[name][metric])
        if metric == "fast_median_s":
            # Lower is better: regression when the new median grew.
            ratio = new_value / old_value if old_value > 0 else float("inf")
            row = (
                f"{name:<{width}}  old={old_value * 1e3:8.2f}ms"
                f"  new={new_value * 1e3:8.2f}ms  ratio={ratio:5.2f}"
            )
            regressed = ratio > 1.0 + threshold
        else:
            # Higher is better: regression when the speedup *dropped* by
            # more than the threshold fraction (new < (1-threshold)*old).
            drop = 1.0 - new_value / old_value if old_value > 0 else -float("inf")
            row = (
                f"{name:<{width}}  old={old_value:6.2f}x"
                f"  new={new_value:6.2f}x  drop={drop:+5.0%}"
            )
            regressed = drop > threshold
        flag = ""
        if regressed:
            flag = "  << REGRESSION"
            regressions.append(name)
        report.append(row + flag)
    if ungated:
        report.append(f"not gated (no speedup in both files): {', '.join(ungated)}")
    only_old = sorted(set(old_kernels) - set(new_kernels))
    only_new = sorted(set(new_kernels) - set(old_kernels))
    if only_old:
        report.append(f"kernels dropped in new file: {', '.join(only_old)}")
    if only_new:
        report.append(f"kernels added in new file: {', '.join(only_new)}")
    return report, regressions


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="baseline BENCH_*.json")
    parser.add_argument("new", type=Path, help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed fractional regression per kernel before failing (default 0.2)",
    )
    parser.add_argument(
        "--metric",
        choices=("fast_median_s", "speedup"),
        default="fast_median_s",
        help=(
            "what to gate on: absolute fast-path medians (same-machine "
            "baselines) or the machine-independent fast/legacy speedup "
            "(cross-machine baselines, e.g. CI)"
        ),
    )
    args = parser.parse_args(argv)

    try:
        old = json.loads(args.old.read_text())
        new = json.loads(args.new.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read benchmark file: {exc}", file=sys.stderr)
        return 2
    try:
        report, regressions = compare_benchmarks(
            old, new, threshold=args.threshold, metric=args.metric
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    if regressions:
        print(
            f"FAIL: {len(regressions)} kernel(s) regressed by more than "
            f"{args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print("OK: no kernel regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
