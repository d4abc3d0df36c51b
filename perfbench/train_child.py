"""One training run of a benchmark workload, in its own process.

Usage (``run.py`` spawns this with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/train_child.py --workload table4_bgf --seed 0 --out R.json [--seconds S] [--trace] [--setup-only]

The process imports the library, builds and validates the workload's
``RunSpec``, then prints ``READY`` on stdout: the parent's clock from
spawn to that line is one ``setup_s`` sample.  ``--setup-only`` exits
there.  Otherwise it calls ``repro.api.run_experiment`` once, optionally
under the layer tracer.  With ``--seconds S`` that first call is a warm-up
and the same spec runs again while another repetition still fits in
``S`` seconds (at least once more).  Every repetition's rows and
wall-clock, the peak RSS and the resolved run spec go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.api import get_experiment, run_experiment  # noqa: E402
from repro.config import RunSpec  # noqa: E402

from tracer import Tracer  # noqa: E402

TRAINING_WORKLOADS = ("table4_bgf", "figure7_gs")


def build_spec(workload: str, seed: int) -> RunSpec:
    """The workload's RunSpec: a registered preset, cut down so that one
    repetition takes a few seconds, with the benchmark seed.

    ``table4_bgf`` is the ``table4`` CI preset on the MNIST image row
    alone, without the DBN columns, at 5 epochs: a CD-10 and a BGF RBM,
    each with a logistic head.  ``figure7_gs`` is the ``figure7`` paper
    preset on KMNIST with no CD/BGF methods, i.e. only its float32 PCD-64
    Gibbs-sampler run and 64-chain AIS, over 2 epochs of 200 rows with 60
    AIS temperatures, on one worker: the preset's ``workers="auto"`` runs
    two workers that each call a 2-thread BLAS on two cores, which made
    this workload too noisy to gate.
    """
    if workload == "table4_bgf":
        spec = get_experiment("table4").preset("ci").with_overrides(
            image_benchmarks=("mnist",), include_dbn=False, include_recommender=False,
            include_anomaly=False, epochs=5,
        )
    elif workload == "figure7_gs":
        spec = get_experiment("figure7").preset("paper").with_overrides(
            datasets=("kmnist",), methods=(), epochs=2, train_samples=200, ais_betas=60, workers=1
        )
    else:
        raise ValueError(f"not a training workload: {workload!r}")
    spec = spec.replace(seed=seed)
    get_experiment(spec.experiment).materialize_kwargs(spec)
    return spec


def run_training(spec: RunSpec, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Run ``spec`` through ``run_experiment``; traced when ``tracer`` is given.

    The wrappers are installed only around the call and removed after it,
    whether it returns or raises.
    """
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter("api.run_experiment")
            try:
                result = run_experiment(spec)
            finally:
                tracer.exit()
        else:
            result = run_experiment(spec)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "rows": [{key: _jsonable(value) for key, value in row.items()} for row in result.rows],
        "run_spec": result.metadata.get("run_spec"),
        "wall_s": wall_s,
        "trace": tracer.dump() if tracer is not None else None,
    }


def _jsonable(value: Any) -> Any:
    """Row values as strict JSON: NaN (a table cell with no model) becomes None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if hasattr(value, "item"):
        return _jsonable(value.item())
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TRAINING_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = build_spec(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    report = run_training(spec, Tracer() if args.trace else None)
    runs = [{"rows": report.pop("rows"), "wall_s": report.pop("wall_s")}]
    if args.seconds > 0:
        deadline = time.monotonic() + args.seconds
        while len(runs) < 2 or time.monotonic() + runs[-1]["wall_s"] <= deadline:
            repeat = run_training(spec)
            runs.append({"rows": repeat["rows"], "wall_s": repeat["wall_s"]})
    report["runs"] = runs
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
