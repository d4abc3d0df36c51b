#!/usr/bin/env python
"""Measure what the pipelines reach in ``src/repro``; print what they miss.

Runs every pipeline below in a fresh process under the profile hook in
``benchmarks/reach_hook/`` and prints one JSON object:

* ``never_called``: functions and methods defined in ``src/repro`` that
  no pipeline called;
* ``defaults_never_set``: for each function that ran, the defaulted
  parameters that never received a value other than their default;
* ``unresolved``: functions that ran but whose defaults the hook could not
  look up (it skips closures, lambdas and comprehensions on purpose);
* ``failed``: pipelines that exited nonzero or timed out, with their exit
  code (a regressing ``compare_bench.py`` exits 1 and still counts as
  reached).

The pipelines are every experiment's ``ci`` preset, both ``sparse``
presets, the recipes of ``make run-ci``, ``make serve-smoke`` and ``make
examples-smoke`` (their ``/tmp`` outputs go to a scratch directory), the
other two examples, ``repro lint src``, one ``bench_kernels.py`` pass with
both ``compare_bench.py`` modes, and perfbench's three workloads, untraced
and traced.  ``make artifacts`` is not run.  A run takes about seven minutes
on a 2-core host.  Usage, from the repo root::

    make reach        # or: PYTHONPATH=src python benchmarks/reach.py

Before a simplicity change, treat the output, minus what is kept on
purpose, as the worklist (docs/dev.md).
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pkgutil
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOOK_DIR = Path(__file__).resolve().parent / "reach_hook"
#: Seconds one pipeline may take before it is stopped and counted failed.
TIMEOUT_S = 600


def _load_hook():
    spec = importlib.util.spec_from_file_location("reach_hook", HOOK_DIR / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hook = _load_hook()


def make_recipe(target: str, scratch: Path) -> list:
    """The commands of a Makefile target, ``$(PYTHON)`` resolved and
    ``/tmp/`` paths moved under ``scratch``."""
    lines = (ROOT / "Makefile").read_text().splitlines()
    recipe = []
    for line in lines[lines.index(f"{target}:") + 1:]:
        if not line.startswith("\t"):
            break
        command = line.strip().replace("$(PYTHON)", sys.executable)
        recipe.append(shlex.split(command.replace("/tmp/", f"{scratch}/")))
    return recipe


def pipelines(scratch: Path) -> list:
    from repro.api import list_experiments

    py = sys.executable
    runs = [
        [py, "-m", "repro", "run", experiment.name, "--preset", preset]
        for preset in ("ci", "sparse")
        for experiment in list_experiments()
        if preset in experiment.presets
    ]
    for target in ("run-ci", "serve-smoke", "examples-smoke"):
        runs += make_recipe(target, scratch)
    bench = str(scratch / "bench.json")
    baseline = "benchmarks/BENCH_kernels.json"
    runs += [
        [py, "examples/hardware_projection.py"],
        [py, "examples/anomaly_detection.py"],
        [py, "-m", "repro", "lint", "src"],
        [py, "benchmarks/bench_kernels.py", "--repeats", "1", "--output", bench],
        [py, "benchmarks/compare_bench.py", baseline, bench],
        [py, "benchmarks/compare_bench.py", "--metric", "speedup", "--threshold", "0.5", baseline, bench],
    ]
    runs += [
        [py, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "2", "--trace", trace]
        for workload in ("table4_bgf", "figure7_gs", "serve_tcp")
        for trace in ("0", "1")
    ]
    return runs


def inventory() -> dict:
    """``(path, line, qualname) -> function`` for every function and method
    defined in ``src/repro`` (closures excluded)."""
    import repro

    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        stack = list(vars(module).values())
        while stack:
            obj = stack.pop()
            if isinstance(obj, type):
                if obj.__module__ == module.__name__:
                    stack.extend(vars(obj).values())
                continue
            for fn in hook.unwrapped(obj):
                code = getattr(fn, "__code__", None)
                if code is None or code.co_filename != module.__file__:
                    continue
                found.setdefault(tuple(hook.code_key(code)), fn)
    return found


def run_pipeline(argv: list, env: dict):
    """Run one pipeline in its own process group; return its exit code, or
    ``"timeout"``.  Whatever it left running (a server child, say) is
    killed with the group."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "timeout"
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        scratch, records = Path(tmp) / "scratch", Path(tmp) / "records"
        scratch.mkdir()
        records.mkdir()
        env = dict(os.environ, REPRO_REACH_DIR=str(records))
        env["PYTHONPATH"] = os.pathsep.join([str(HOOK_DIR), str(SRC)])
        failed = []
        runs = pipelines(scratch)
        for i, argv in enumerate(runs, 1):
            command = shlex.join(argv).replace(sys.executable, "python")
            print(f"[{i}/{len(runs)}] {command}", file=sys.stderr, flush=True)
            code = run_pipeline(argv, env)
            if code != 0:
                failed.append({"command": command, "exit": code})
        called, non_default, unresolved = set(), set(), set()
        for path in records.glob("*.json"):
            record = json.loads(path.read_text())
            called.update(tuple(key) for key in record["called"])
            non_default.update(tuple(key) for key in record["non_default"])
            unresolved.update(tuple(key) for key in record["unresolved"])

    functions = inventory()
    label = {key: f"{key[0]}:{key[2]}" for key in functions}
    never_set = {}
    for key, fn in sorted(functions.items()):
        if key not in called or key in unresolved:
            continue
        params = [
            name for name, _ in hook.defaulted_parameters(fn)
            if key + (name,) not in non_default
        ]
        if params:
            never_set[label[key]] = params
    report = {
        "pipelines": len(runs),
        "failed": failed,
        "functions": len(functions),
        "called": sum(key in called for key in functions),
        "never_called": sorted(label[key] for key in functions if key not in called),
        "defaults_never_set": never_set,
        "unresolved": sorted(label[key] for key in functions if key in unresolved),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
