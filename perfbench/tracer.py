"""In-memory call-path tracer for the benchmark's traced runs.

The traced run replaces public functions of the ``repro`` layers with
wrappers that time each call; nothing inside ``src/`` is edited.  Spans are
aggregated per call path (``root -> core.bgf.train -> core.bgf.run ->
ising.gibbs_chain -> ising.settle_batch``): each path node keeps its call
count, busy time, self time (busy time minus the time its child spans
cover) and a work count.  High-frequency leaves (hundreds of thousands of
charge-pump calls) therefore cost one node, not one record per call.
Coroutine spans (``serve.submit``) interleave on one thread, so they are
kept flat as ``(start, duration)`` samples instead of joining the stack.

Wrappers read only a clock and the arguments they were given; they draw
no random numbers and return or re-raise exactly what the wrapped call
did, so a traced run computes the same results as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: HostStatistics fields read from ``trainer.machine.host`` after ``train``,
#: under the metric names the benchmark reports them by.
HOST_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("programming_writes", "programming_writes"),
    ("sample_reads", "sample_reads"),
    ("gradient_updates_on_host", "host_updates"),
    ("training_samples_streamed", "samples_streamed"),
    ("final_weight_readouts", "final_readouts"),
)


def _chain_steps(args: tuple, kwargs: dict) -> int:
    """Chain-steps of one ``settle_batch(self, hidden_init, n_steps)`` call."""
    hidden_init = args[1] if len(args) > 1 else kwargs["hidden_init"]
    n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
    shape = getattr(hidden_init, "shape", None)
    rows = shape[0] if shape is not None and len(shape) == 2 else 1
    return int(rows) * int(n_steps)


#: What the traced run wraps: (span name, module, attribute, kind).
#: ``span`` times the call on the call-path stack, ``host`` also tallies the
#: trainer's HostStatistics deltas, ``count`` only counts calls, ``async``
#: times a coroutine as a flat sample, and ``function`` is a module-level
#: function patched in every ``repro`` module that imported it by name.
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.bgf.train", "repro.core.gradient_follower", "BGFTrainer.train", "host"),
    ("core.bgf.run", "repro.core.gradient_follower", "BoltzmannGradientFollower.run", "span"),
    ("core.gs.train", "repro.core.gibbs_sampler", "GibbsSamplerTrainer.train", "host"),
    ("core.gs.positive_phase", "repro.core.gibbs_sampler", "GibbsSamplerMachine.positive_phase", "span"),
    ("core.gs.negative_phase", "repro.core.gibbs_sampler", "GibbsSamplerMachine.negative_phase", "span"),
    ("core.gs.negative_phase_chains", "repro.core.gibbs_sampler", "GibbsSamplerMachine.negative_phase_chains", "span"),
    ("ising.gibbs_chain", "repro.ising.bipartite", "BipartiteIsingSubstrate.gibbs_chain", "span"),
    ("ising.settle_batch", "repro.ising.bipartite", "BipartiteIsingSubstrate.settle_batch", "span"),
    ("ising.invalidations", "repro.ising.bipartite", "BipartiteIsingSubstrate.invalidate_effective_weights", "count"),
    ("ising.invalidations", "repro.ising.bipartite", "BipartiteIsingSubstrate.program", "count"),
    ("ising.invalidations", "repro.ising.bipartite", "BipartiteIsingSubstrate.program_trusted", "count"),
    ("analog.charge_pump", "repro.analog.charge_pump", "ChargePumpUpdater.apply", "span"),
    ("analog.charge_pump", "repro.analog.charge_pump", "ChargePumpUpdater.apply_sample", "span"),
    ("analog.charge_pump", "repro.analog.charge_pump", "ChargePumpUpdater.apply_bias", "span"),
    ("analog.charge_pump", "repro.analog.charge_pump", "ChargePumpUpdater.apply_bias_sample", "span"),
    ("rbm.ais.estimate_log_partition", "repro.rbm.ais", "AISEstimator.estimate_log_partition", "span"),
    ("rbm.cd.train", "repro.rbm.rbm", "CDTrainer.train", "span"),
    ("rbm.score_samples", "repro.rbm.rbm", "BernoulliRBM.score_samples", "span"),
    ("eval.logistic.fit", "repro.eval.logistic", "LogisticRegressionClassifier.fit", "span"),
    ("datasets.load_benchmark_dataset", "repro.datasets.registry", "load_benchmark_dataset", "function"),
    ("serve.load_model", "repro.serve.artifact", "load_model", "function"),
    ("serve.submit", "repro.serve.service", "MicroBatchScoringService.submit", "async"),
)


def _rows(args: tuple, kwargs: dict) -> int:
    """Rows scored by one ``score_samples(self, v)`` call."""
    rows = args[1] if len(args) > 1 else kwargs["v"]
    return int(rows.shape[0]) if getattr(rows, "ndim", 1) == 2 else 1


#: Work counters computed from a wrapped call's arguments.
WORK = {"ising.settle_batch": _chain_steps, "rbm.score_samples": _rows}


class Node:
    """One call path: counts and times of every span that took it."""

    __slots__ = ("name", "calls", "total", "self_time", "work", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.children: Dict[str, "Node"] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "work": self.work,
            "children": [child.as_dict() for child in self.children.values()],
        }


class Tracer:
    """Aggregating span recorder; one call-path stack per thread.

    ``clock`` is injectable so the self-time arithmetic can be checked on
    a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counters: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._roots: List[Node] = []
        self._roots_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- #
    # Spans
    # ----------------------------------------------------------------- #
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = Node("root")
            with self._roots_lock:
                self._roots.append(root)
            stack = self._local.stack = [[root, 0.0, 0.0]]
        return stack

    def enter(self, name: str) -> None:
        """Open a span called ``name`` under the thread's current span."""
        stack = self._stack()
        stack.append([stack[-1][0].child(name), self.clock(), 0.0])

    def exit(self, work: int = 0) -> None:
        """Close the innermost open span, charging its time to its parent."""
        end = self.clock()
        stack = self._local.stack
        node, start, child_time = stack.pop()
        duration = end - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - child_time
        node.work += work
        stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; results and exceptions pass through."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(work(args, kwargs) if work is not None else 0)

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine function ``fn`` timed as flat ``(start, duration)`` samples."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = tracer.clock()
            try:
                return await fn(*args, **kwargs)
            except Exception:
                tracer.counters[name + ".errors"] += 1
                raise
            finally:
                tracer.samples[name].append((start, tracer.clock() - start))

        return traced

    def wrap_count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name`` (no timing)."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_host(self, name: str, fn: Callable) -> Callable:
        """A trainer's ``train`` timed as ``name``, tallying the HostStatistics
        of ``trainer.machine.host`` that the call added."""
        timed = self.wrap(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def train(trainer, *args, **kwargs):
            machine_before = getattr(trainer, "machine", None)
            before = _host_counts(machine_before)
            try:
                return timed(trainer, *args, **kwargs)
            finally:
                machine = getattr(trainer, "machine", None)
                if machine is not machine_before:
                    before = _host_counts(None)
                after = _host_counts(machine)
                for field, metric in HOST_FIELDS:
                    counters["core.host." + metric] += after[field] - before[field]

        return train

    # ----------------------------------------------------------------- #
    # Installing and restoring wrappers
    # ----------------------------------------------------------------- #
    def install(self, targets=LAYER_TARGETS) -> None:
        """Replace every target with its wrapper (undo with :meth:`restore`)."""
        importlib.import_module("repro.api")
        importlib.import_module("repro.serve")
        for name, module_name, attribute, kind in targets:
            module = importlib.import_module(module_name)
            if kind == "function":
                original = getattr(module, attribute)
                wrapper = self.wrap(name, original)
                for holder in _modules_holding(original):
                    self._patch(holder, attribute, wrapper)
                continue
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if kind == "async":
                wrapper = self.wrap_async(name, original)
            elif kind == "count":
                wrapper = self.wrap_count(name, original)
            elif kind == "host":
                wrapper = self.wrap_host(name, original)
            else:
                wrapper = self.wrap(name, original, WORK.get(name))
            self._patch(owner, method, wrapper)

    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ----------------------------------------------------------------- #
    # Output
    # ----------------------------------------------------------------- #
    def dump(self) -> Dict[str, Any]:
        """Span trees (one per thread that traced), counters and samples."""
        with self._roots_lock:
            roots = [root.as_dict() for root in self._roots]
        return {
            "roots": roots,
            "counters": dict(self.counters),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }


def _host_counts(machine) -> Dict[str, int]:
    host = getattr(machine, "host", None)
    return {field: int(getattr(host, field, 0)) for field, _ in HOST_FIELDS}


def _modules_holding(function: Callable) -> Iterator[Any]:
    """Every loaded ``repro`` module that binds ``function`` by its name."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro" or module is None:
            continue
        if getattr(module, function.__name__, None) is function:
            yield module


def walk(dump: Dict[str, Any]) -> Iterator[Tuple[Dict[str, Any], Optional[str]]]:
    """Every span node of a :meth:`Tracer.dump` with its parent's name."""
    pending = [(child, None) for root in dump["roots"] for child in root["children"]]
    while pending:
        node, parent = pending.pop()
        yield node, parent
        pending.extend((child, node["name"]) for child in node["children"])


def span_totals(dump: Dict[str, Any], name: str, *, exclude_parent: Optional[str] = None) -> Dict[str, float]:
    """Summed ``calls``/``total_s``/``self_s``/``work`` of the spans called
    ``name`` on every call path, optionally skipping those whose parent span
    is ``exclude_parent``."""
    totals = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
    for node, parent in walk(dump):
        if node["name"] != name or (exclude_parent is not None and parent == exclude_parent):
            continue
        for key in totals:
            totals[key] += node[key]
    return totals
