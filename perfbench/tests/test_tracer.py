"""Tests of the benchmark's layer tracer and its traced training path."""

from __future__ import annotations

import asyncio
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import get_experiment, run_experiment
from run import BENCH
from tracer import LAYER_TARGETS, Tracer, span_totals
from train_child import run_training


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def node(dump, *path):
    """The span at ``path`` below the (single) root of ``dump``."""
    (root,) = dump["roots"]
    current = root
    for name in path:
        (current,) = [child for child in current["children"] if child["name"] == name]
    return current


def test_self_time_is_duration_minus_child_spans():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer.enter("a")       # 0
    tracer.enter("b")       # 1
    tracer.exit()           # 3
    tracer.enter("c")       # 4
    tracer.enter("b")       # 5
    tracer.exit(work=7)     # 6
    tracer.exit()           # 8
    tracer.exit()           # 10
    dump = tracer.dump()

    a = node(dump, "a")
    assert (a["calls"], a["total_s"], a["self_s"]) == (1, 10, 4)
    c = node(dump, "a", "c")
    assert (c["total_s"], c["self_s"]) == (4, 3)
    nested_b = node(dump, "a", "c", "b")
    assert (nested_b["total_s"], nested_b["self_s"], nested_b["work"]) == (1, 1, 7)
    assert span_totals(dump, "b") == {"calls": 2, "total_s": 3, "self_s": 3, "work": 7}
    assert span_totals(dump, "b", exclude_parent="c") == {"calls": 1, "total_s": 2, "self_s": 2, "work": 0}


def test_repeated_calls_on_one_path_aggregate():
    tracer = Tracer(clock=FakeClock(0, 2, 5, 6))
    for _ in range(2):
        tracer.enter("leaf")
        tracer.exit()
    leaf = node(tracer.dump(), "leaf")
    assert (leaf["calls"], leaf["total_s"], leaf["self_s"]) == (2, 3, 3)


class Boom(Exception):
    pass


def test_wrappers_return_results_and_reraise_unchanged():
    tracer = Tracer()
    sentinel = object()
    error = Boom("x")

    def ok(value, *, extra=None):
        return value

    def fail():
        raise error

    async def ok_async(value):
        return value

    async def fail_async():
        raise error

    assert tracer.wrap("ok", ok)(sentinel, extra=1) is sentinel
    assert tracer.wrap_count("count", ok)(sentinel) is sentinel
    assert asyncio.run(tracer.wrap_async("ok_async", ok_async)(sentinel)) is sentinel
    with pytest.raises(Boom) as raised:
        tracer.wrap("fail", fail)()
    assert raised.value is error
    with pytest.raises(Boom) as raised:
        asyncio.run(tracer.wrap_async("fail_async", fail_async)())
    assert raised.value is error

    assert tracer.wrap("ok", ok).__name__ == "ok"
    assert len(tracer._stack()) == 1, "a raising span must still close"
    dump = tracer.dump()
    assert node(dump, "fail")["calls"] == 1
    assert dump["counters"] == {"count": 1, "fail_async.errors": 1}
    assert [name for name in dump["samples"]] == ["ok_async", "fail_async"]


def _originals():
    """Every attribute the layer tracer patches, as currently bound."""
    importlib.import_module("repro.api")
    importlib.import_module("repro.serve")
    bound = {}
    for _, module_name, attribute, kind in LAYER_TARGETS:
        module = importlib.import_module(module_name)
        if kind == "function":
            function = getattr(module, attribute)
            for name, holder in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(holder, attribute, None) is function:
                    bound[(name, attribute)] = function
        else:
            class_name, method = attribute.split(".")
            bound[(module_name, attribute)] = getattr(module, class_name).__dict__[method]
    return bound


def _current(key):
    module_name, attribute = key
    owner = sys.modules[module_name]
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part)
    last = attribute.split(".")[-1]
    return owner.__dict__[last] if isinstance(owner, type) else getattr(owner, last)


def _small_specs():
    """A one-benchmark table4 (BGF + CD + logistic head) and a sharded
    PCD-8 figure7 (GS + AIS + thread pool), each a few seconds."""
    table4 = get_experiment("table4").preset("ci").with_overrides(
        image_benchmarks=("mnist",), epochs=2, include_dbn=False,
        include_recommender=False, include_anomaly=False, seed=3,
    )
    figure7 = get_experiment("figure7").preset("ci").with_overrides(
        datasets=("mnist",), methods=(), gs_chains=8, epochs=2,
        ais_chains=4, ais_betas=10, workers=2, seed=3,
    )
    return table4, figure7


def _host_counts_untimed(spec):
    """HostStatistics deltas with only the trainers' ``train`` wrapped."""
    tracer = Tracer()
    tracer.install(targets=[target for target in LAYER_TARGETS if target[3] == "host"])
    try:
        run_experiment(spec)
    finally:
        tracer.restore()
    return dict(tracer.counters)


@pytest.mark.parametrize("spec", _small_specs(), ids=["table4", "figure7"])
def test_tracing_perturbs_nothing_and_restores_every_patch(spec):
    before = _originals()
    plain = run_training(spec)
    first, second = Tracer(), Tracer()
    traced = run_training(spec, first)
    again = run_training(spec, second)

    assert {key: _current(key) for key in before} == before

    assert traced["rows"] == plain["rows"] == again["rows"]
    host_first = {k: v for k, v in first.counters.items() if k.startswith("core.host.")}
    host_second = {k: v for k, v in second.counters.items() if k.startswith("core.host.")}
    host_untimed = _host_counts_untimed(spec)
    assert host_first["core.host.samples_streamed"] > 0
    assert host_first == host_second == host_untimed
    dump = traced["trace"]
    if spec.experiment == "table4":
        assert span_totals(dump, "ising.gibbs_chain")["calls"] > 0
        assert span_totals(dump, "rbm.ais.estimate_log_partition")["calls"] == 0
    else:
        assert span_totals(dump, "ising.settle_batch")["work"] > 0
        assert span_totals(dump, "core.bgf.run")["calls"] == 0
        assert span_totals(dump, "analog.charge_pump")["calls"] == 0


def test_command_fails_without_the_library(tmp_path):
    """Outside a checkout (only BENCHMARK.json and perfbench/) the command
    exits non-zero without printing a result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_tcp", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / "perfbench" / "out").exists()
