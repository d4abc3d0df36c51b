"""Builder facade and experiment registry over the typed spec layer.

``repro.api`` is the front door of the library: build the trainer a
:mod:`repro.config` spec describes, and run any
registered experiment from a :class:`~repro.config.RunSpec` — the same
surface ``python -m repro run`` drives.  See ``docs/api.md``.

Quickstart::

    from repro.api import build_trainer, run_experiment
    from repro.config import ComputeSpec, RunSpec, TrainerSpec

    trainer = build_trainer(TrainerSpec.bgf(0.1), rng=0)
    result = run_experiment(RunSpec(experiment="table2"))
"""

from repro.api.cli import main as cli_main
from repro.api.facade import build_trainer, run_experiment
from repro.api.registry import (
    ExperimentSpec,
    get_experiment,
    list_experiments,
    register_experiment,
)

__all__ = [
    "build_trainer",
    "run_experiment",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "cli_main",
]
