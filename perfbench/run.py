"""End-to-end benchmark of the RBM / Ising-substrate library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table4_bgf --seed 0 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``table4_bgf``: the registered ``table4`` CI preset, cut to the MNIST
  row without DBN columns at 5 epochs, through ``repro.api.run_experiment``;
  BGF-bound.
* ``figure7_gs``: the ``figure7`` paper preset, KMNIST only, no CD or BGF
  methods, so only the PCD-64 Gibbs-sampler run plus AIS, cut to 2 epochs
  of 200 rows and 60 AIS temperatures, one worker; BLAS-bound.
* ``serve_tcp``: ``python -m repro serve`` on a seeded 784x500 RBM artifact
  under open-loop TCP load at a low, a nominal and an over-capacity rate.

A training run repeats ``run_experiment`` in one process for ``--seconds``
after a warm-up and reports the fastest repetition as ``wall_s``.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` repeats the workload once untraced and once with the layer
tracer (perfbench/tracer.py) installed and reports the per-layer metrics,
including the tracing overhead.  Every run checks the program's outputs.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A full record with
the machine description goes to ``perfbench/out/``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("table4_bgf", "figure7_gs", "serve_tcp")

#: Set-up is measured this many times per run and reported as the median.
SETUP_SAMPLES = 9
#: Seconds a child process may take before it counts as failed.
CHILD_TIMEOUT_S = 160.0

#: Serving load, as (phase, offered req/s, share of --seconds).  The server
#: answers ~2.9k req/s of 1-4-row requests on 2 cores, so 1000/s is
#: nominal and 5000/s is above capacity; 100/s leaves the 2 ms linger as
#: the main cost.
SERVE_PHASES = (("low", 100.0, 0.15), ("nominal", 1000.0, 0.30), ("over", 5000.0, 0.06))
SERVE_CONNECTIONS = 2
SERVE_ROWS = (1, 4)
SERVE_BLOCKS = 256
SERVE_VERIFIED = 256
#: The service's documented tolerance for batched vs direct scores.
SERVE_RTOL, SERVE_ATOL = 1e-10, 1e-12

#: Metrics printed by name but not gated: each is defined on one kind of
#: workload only, or (``error_ratio``) is normally 0.  Gated metrics and
#: their units come from BENCHMARK.json.
REPORTED_ONLY = {
    "bgf_accuracy": ("ratio", "higher"),
    "wall_s.median": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "p50_ms.low": ("ms", "lower"),
    "throughput_req_s": ("1/s", "higher"),
    "error_ratio": ("ratio", "lower"),
}

TABLE4_IMAGE_ROWS = ("mnist",)


# --------------------------------------------------------------------- #
# Small helpers
# --------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    """The caller's environment with ``src`` importable; BLAS threads are
    deliberately left as the environment has them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else math.nan


def finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def stop_process(proc: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 15.0) -> None:
    """Ask ``proc`` to stop with ``sig``, kill it if it does not, and reap it."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> Tuple[Optional[int], str]:
    """Effective BLAS thread count and where it came from."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name):
            return int(os.environ[name]), f"env {name}"
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in libraries:
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(library, symbol):
                    return int(getattr(library, symbol)()), "default (queried from OpenBLAS)"
    except OSError:
        pass
    return None, "default (not queryable)"


def machine_meta() -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_source": source,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


class Checks:
    """Named pass/fail outcomes; the run's ``attempted``/``failed``."""

    def __init__(self):
        self.results: List[Tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> List[str]:
        return [name for name, ok in self.results if not ok]


# --------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------- #
def spawn_training(workload: str, seed: int, *, out: Optional[Path] = None, seconds: float = 0.0,
                   trace: bool = False) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run train_child.py; return (set-up seconds, its report or None)."""
    argv = [sys.executable, str(BENCH / "train_child.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--out", str(out), "--seconds", str(seconds)] if out is not None else ["--setup-only"]
    if trace:
        argv.append("--trace")
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.monotonic() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} child exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return math.nan, None
    finally:
        stop_process(proc, signal.SIGKILL)
    if ready != "READY" or proc.returncode != 0:
        print(f"error: {workload} child exited with {proc.returncode}", file=sys.stderr)
        return math.nan, None
    if out is None:
        return setup_s, {}
    return setup_s, json.loads(out.read_text())


def check_table4(rows: List[Dict[str, Any]], checks: Checks) -> float:
    """Exactly the workload's rows, each accuracy finite and in [0, 1];
    returns the mean ``rbm_bgf`` accuracy of the image rows."""
    by_name = {row.get("benchmark"): row for row in rows}
    checks.add("table4.rows", sorted(by_name) == sorted(TABLE4_IMAGE_ROWS) and len(rows) == len(TABLE4_IMAGE_ROWS))
    for name in TABLE4_IMAGE_ROWS:
        row = by_name.get(name, {})
        values = [row.get("rbm_cd10"), row.get("rbm_bgf")]
        checks.add(f"table4.{name}", all(finite(value) and 0.0 <= value <= 1.0 for value in values))
    accuracies = [by_name[name]["rbm_bgf"] for name in TABLE4_IMAGE_ROWS if finite(by_name.get(name, {}).get("rbm_bgf"))]
    return statistics.fmean(accuracies) if accuracies else math.nan


def check_figure7(rows: List[Dict[str, Any]], epochs: int, checks: Checks) -> None:
    """``epochs + 1`` finite log-probability points."""
    points = [row.get("avg_log_probability") for row in rows]
    checks.add("figure7.points", len(points) == epochs + 1)
    for epoch, value in enumerate(points):
        checks.add(f"figure7.epoch{epoch}.finite", finite(value))


def check_training(workload: str, report: Optional[Dict[str, Any]], checks: Checks) -> Dict[str, float]:
    """Check every repetition's outputs; return the workload-specific
    quality metrics, averaged over the repetitions."""
    if report is None:
        checks.add(f"{workload}.completed", False)
        return {}
    if workload == "table4_bgf":
        return {"bgf_accuracy": statistics.fmean(check_table4(run["rows"], checks) for run in report["runs"])}
    epochs = int(report["run_spec"]["params"]["epochs"])
    for run in report["runs"]:
        check_figure7(run["rows"], epochs, checks)
    return {}


def run_training_workload(args, checks: Checks, workdir: Path) -> Dict[str, Any]:
    """Set up ``SETUP_SAMPLES`` times, the last in the child that warms up
    and then repeats the workload for ``--seconds``."""
    setups = [spawn_training(args.workload, args.seed)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, report = spawn_training(args.workload, args.seed, out=workdir / "run.json", seconds=args.seconds)
    setups.append(setup_s)
    quality = check_training(args.workload, report, checks)
    checks.add(f"{args.workload}.setup", all(finite(value) for value in setups))
    # The first run is the warm-up.  The host's speed drifts for tens of
    # seconds at a time and only ever slows a run, so the fastest timed
    # repetition is the steadiest estimate of the program's own time.
    timed = [run["wall_s"] for run in report["runs"][1:]] if report else []
    metrics: Dict[str, Any] = {
        "setup_s": statistics.median([value for value in setups if finite(value)] or [math.nan]),
        "wall_s": min(timed, default=math.nan),
        "wall_s.median": statistics.median(timed) if timed else math.nan,
        "peak_rss_mb": report["peak_rss_mb"] if report else math.nan,
        "repetitions": len(timed),
        **quality,
    }
    compute = report["run_spec"].get("compute") if report else None
    return {"metrics": metrics, "compute": compute, "repetitions_s": timed}


def run_training_traced(args, checks: Checks, workdir: Path) -> Dict[str, Any]:
    """Untraced then traced run of one seed; per-layer metrics from the trace."""
    from tracer import span_totals

    _, plain = spawn_training(args.workload, args.seed, out=workdir / "untraced.json")
    check_training(args.workload, plain, checks)
    _, traced = spawn_training(args.workload, args.seed, out=workdir / "traced.json", trace=True)
    check_training(args.workload, traced, checks)
    if plain is None or traced is None:
        return {"metrics": {}, "compute": None}
    dump = traced["trace"]
    counters = dump["counters"]

    def total(name: str, key: str = "total_s", **kwargs) -> float:
        return span_totals(dump, name, **kwargs)[key]

    plain_s, traced_s = plain["runs"][0]["wall_s"], traced["runs"][0]["wall_s"]
    settles = total("ising.settle_batch", "calls")
    host = {metric: counters.get("core.host." + metric, 0) for metric in (
        "programming_writes", "sample_reads", "host_updates", "samples_streamed", "final_readouts")}
    interactions = host["programming_writes"] + host["sample_reads"] + host["host_updates"] + host["final_readouts"]
    metrics = {
        "api.run_experiment.self_s": total("api.run_experiment", "self_s"),
        "core.bgf.train.s": total("core.bgf.train"),
        "core.bgf.run.self_s": total("core.bgf.run", "self_s"),
        "core.gs.train.s": total("core.gs.train"),
        "core.gs.positive_phase.s": total("core.gs.positive_phase"),
        "core.gs.negative_phase_chains.s": total("core.gs.negative_phase_chains"),
        "ising.gibbs_chain.s": total("ising.gibbs_chain"),
        "ising.gibbs_chain.calls": total("ising.gibbs_chain", "calls"),
        "ising.settle_batch.s": total("ising.settle_batch", exclude_parent="ising.gibbs_chain"),
        "ising.settle_batch.calls": total("ising.settle_batch", "calls", exclude_parent="ising.gibbs_chain"),
        "ising.settle_batch.chain_steps": total("ising.settle_batch", "work", exclude_parent="ising.gibbs_chain"),
        "ising.invalidations_per_settle": counters.get("ising.invalidations", 0) / settles if settles else 0.0,
        "analog.charge_pump.s": total("analog.charge_pump"),
        "analog.charge_pump.calls": total("analog.charge_pump", "calls"),
        "rbm.ais.estimate_log_partition.s": total("rbm.ais.estimate_log_partition"),
        "rbm.ais.estimate_log_partition.calls": total("rbm.ais.estimate_log_partition", "calls"),
        "rbm.cd.train.s": total("rbm.cd.train"),
        "eval.logistic.fit.s": total("eval.logistic.fit"),
        "datasets.load_benchmark_dataset.s": total("datasets.load_benchmark_dataset"),
        "serve.load_model.s": total("serve.load_model"),
        **{"core.host." + key: value for key, value in host.items() if key != "final_readouts"},
        "core.host.interactions_per_sample": interactions / host["samples_streamed"] if host["samples_streamed"] else 0.0,
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_share": (traced_s - plain_s) / plain_s,
    }
    return {"metrics": metrics, "compute": traced["run_spec"].get("compute"), "trace": dump}


# --------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------- #
def spawn_server(argv: List[str]) -> Tuple[subprocess.Popen, float, int]:
    """Start a server; return it, the seconds to its ready line, and its port."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    setup_s = time.monotonic() - start
    match = re.search(r" on (\S+):(\d+) ", line)
    if match is None:
        stop_process(proc, signal.SIGKILL)
        raise RuntimeError(f"server did not report ready (got {line!r})")
    return proc, setup_s, int(match.group(2))


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan


def serve_fixture(seed: int, workdir: Path):
    """The seeded artifact, its loaded twin, the request row blocks and their
    pre-encoded JSON."""
    import numpy as np

    from loadgen import encode_blocks
    from repro.rbm import BernoulliRBM
    from repro.serve import load_model, save_model

    rng = np.random.default_rng(seed)
    rbm = BernoulliRBM(784, 500, weight_scale=0.05, rng=rng)
    rbm.set_parameters(rbm.weights, rng.normal(0.0, 0.5, 784), rng.normal(0.0, 0.5, 500))
    path = workdir / "model"
    save_model(rbm, path)
    artifact = load_model(path)
    blocks = [artifact.example_rows(int(rng.integers(SERVE_ROWS[0], SERVE_ROWS[1] + 1)), rng) for _ in range(SERVE_BLOCKS)]
    return path, artifact, blocks, encode_blocks(blocks), rng


def serve_pass(argv: List[str], schedule, encoded, verified: set, setups: int) -> Dict[str, Any]:
    """Spawn the server ``setups`` times (keeping the last), drive the
    schedule through it, stop it; return set-up samples, load result and
    the server's peak RSS."""
    from loadgen import run_load

    setup_samples: List[float] = []
    proc = None
    try:
        for index in range(setups):
            proc, setup_s, port = spawn_server(argv)
            setup_samples.append(setup_s)
            if index < setups - 1:
                stop_process(proc)
        result = run_load("127.0.0.1", port, schedule, encoded, keep_scores=verified, connections=SERVE_CONNECTIONS)
        rss = peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stop_process(proc)
    return {"setups": setup_samples, "result": result, "peak_rss_mb": rss}


def serve_metrics(result, schedule, blocks, artifact, verified: set, checks: Checks) -> Dict[str, float]:
    """End-to-end serving metrics plus the correctness checks of one pass."""
    import numpy as np

    from loadgen import latency_ms, phase_window

    everyone = np.ones(schedule.due.shape[0], dtype=bool)
    masks = {name: schedule.phase == index for index, (name, _, _) in enumerate(SERVE_PHASES)}
    scorer = artifact.scorer()
    mismatched = 0
    for request in sorted(verified):
        if not result.answered[request]:
            continue
        direct = np.asarray(scorer(blocks[schedule.block[request]]))
        got = np.asarray(result.scores.get(request, []), dtype=float)
        if got.shape != direct.shape or not np.allclose(got, direct, rtol=SERVE_RTOL, atol=SERVE_ATOL):
            mismatched += 1
    unanswered = int((~result.answered).sum())
    checks.add("serve.all_answered", unanswered == 0)
    checks.add("serve.verified_scores_match", mismatched == 0)
    first_due, last_done = phase_window(result, everyone)
    over_first, over_last = phase_window(result, masks["over"])
    nominal = latency_ms(result, masks["nominal"])
    return {
        "wall_s": last_done - first_due,
        "p50_ms": percentile(nominal, 50),
        "p99_ms": percentile(nominal, 99),
        "p50_ms.low": percentile(latency_ms(result, masks["low"]), 50),
        "throughput_req_s": float(result.answered[masks["over"]].sum()) / (over_last - over_first),
        "failed_requests": unanswered + mismatched,
        "attempted_requests": int(schedule.due.shape[0]),
        "generator_late_ms.p99": percentile((result.sent - result.due) * 1e3, 99),
    }


def run_serve_workload(args, checks: Checks, workdir: Path) -> Dict[str, Any]:
    from loadgen import Phase, make_schedule

    path, artifact, blocks, encoded, rng = serve_fixture(args.seed, workdir)
    phases = [Phase(name, rate, share * args.seconds) for name, rate, share in SERVE_PHASES]
    schedule = make_schedule(phases, len(blocks), rng)
    verified = set(rng.choice(schedule.due.shape[0], size=SERVE_VERIFIED, replace=False).tolist())
    serve_argv = [sys.executable, "-m", "repro", "serve", str(path), "--port", "0"]

    if not args.trace:
        served = serve_pass(serve_argv, schedule, encoded, verified, SETUP_SAMPLES)
        metrics = serve_metrics(served["result"], schedule, blocks, artifact, verified, checks)
        metrics["setup_s"] = statistics.median(served["setups"])
        metrics["peak_rss_mb"] = served["peak_rss_mb"]
        return {"metrics": metrics, "compute": None}

    from tracer import span_totals

    plain = serve_pass(serve_argv, schedule, encoded, verified, 1)
    plain_metrics = serve_metrics(plain["result"], schedule, blocks, artifact, verified, checks)
    trace_path = workdir / "serve_trace.json"
    traced_argv = [sys.executable, str(BENCH / "serve_traced.py"), str(trace_path), str(path), "--port", "0"]
    traced = serve_pass(traced_argv, schedule, encoded, verified, 1)
    traced_metrics = serve_metrics(traced["result"], schedule, blocks, artifact, verified, checks)
    dump = json.loads(trace_path.read_text())
    result = traced["result"]
    nominal_index = [name for name, _, _ in SERVE_PHASES].index("nominal")
    nominal_start = result.start + sum(p.seconds for p in phases[:nominal_index])
    nominal_end = nominal_start + phases[nominal_index].seconds
    submit_ms = [duration * 1e3 for start, duration in dump["samples"].get("serve.submit", []) if nominal_start <= start < nominal_end]
    scorer = span_totals(dump, "rbm.score_samples")
    window = traced_metrics["wall_s"]
    metrics = {
        "serve.load_model.s": span_totals(dump, "serve.load_model")["total_s"],
        "serve.submit.ms.p50": percentile(submit_ms, 50),
        "serve.submit.ms.p99": percentile(submit_ms, 99),
        "serve.wire.ms.p50": traced_metrics["p50_ms"],
        "serve.scorer.ms": scorer["total_s"] * 1e3 / scorer["calls"] if scorer["calls"] else 0.0,
        "serve.rows_per_batch": scorer["work"] / scorer["calls"] if scorer["calls"] else 0.0,
        "serve.scorer.busy_share": scorer["total_s"] / window if window > 0 else 0.0,
        "serve.errors": dump["counters"].get("serve.submit.errors", 0),
        "serve.generator_late_ms": traced_metrics["generator_late_ms.p99"],
        "trace.wall_s": traced_metrics["wall_s"],
        "trace.overhead_s": traced_metrics["wall_s"] - plain_metrics["wall_s"],
        "trace.overhead_share": (traced_metrics["wall_s"] - plain_metrics["wall_s"]) / plain_metrics["wall_s"],
    }
    for key in ("failed_requests", "attempted_requests"):
        metrics[key] = plain_metrics[key] + traced_metrics[key]
    return {"metrics": metrics, "compute": None, "trace": dump}


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro library.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    config_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not config_path.is_file():
        print(f"error: {ROOT} is not a checkout of the library (no src/repro or BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    config = json.loads(config_path.read_text())
    gated = config["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workdir = Path(scratch)
        if args.workload == "serve_tcp":
            run = run_serve_workload(args, checks, workdir)
        elif args.trace:
            run = run_training_traced(args, checks, workdir)
        else:
            run = run_training_workload(args, checks, workdir)
    metrics = run["metrics"]

    if args.workload == "serve_tcp":
        attempted = metrics.pop("attempted_requests") + len(checks.results)
        failed = metrics.pop("failed_requests") + len(checks.failed)
    else:
        attempted, failed = len(checks.results), len(checks.failed)
    metrics["error_ratio"] = failed / attempted if attempted else 1.0
    if args.trace:
        # Metrics of layers this workload never reaches read zero.
        for spec in gated:
            metrics.setdefault(spec["name"], 0)
    missing = [spec["name"] for spec in gated if not finite(metrics.get(spec["name"]))]
    correct = not checks.failed and not missing and failed == 0

    meta = machine_meta()
    units = {spec["name"]: (spec["unit"], spec["better"]) for spec in config["end_to_end"] + config["per_layer"]}
    units.update(REPORTED_ONLY)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{key}={value}" for key, value in meta.items()))
    if run.get("compute"):
        print("run: " + " ".join(f"{key}={value}" for key, value in run["compute"].items()))
    for name, value in metrics.items():
        unit, better = units.get(name, ("", ""))
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {better + ' is better' if better else ''}")
    print(f"checks: {len(checks.results) - len(checks.failed)}/{len(checks.results)} passed"
          + (f"; failed: {', '.join(checks.failed)}" if checks.failed else ""))
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": meta, "compute": run.get("compute"), "metrics": metrics,
        "repetitions_s": run.get("repetitions_s"),
        "checks": checks.results, "spans": run.get("trace"),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics.get(spec["name"]), "unit": spec["unit"]} for spec in gated
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
