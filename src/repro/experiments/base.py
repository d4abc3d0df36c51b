"""Shared result container and table formatting for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.specs import NoiseSpec
from repro.datasets.registry import get_benchmark
from repro.rbm.ais import average_log_probability
from repro.utils.validation import ValidationError


@dataclass
class ExperimentResult:
    """Rows produced by one experiment driver.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure5"``).
    description:
        One-line statement of what the paper artifact reports.
    rows:
        List of row dicts; every row has the same keys (the columns).
    metadata:
        Run parameters (scale, seed, epochs, ...), for the record.
    artifacts:
        Non-tabular run products (e.g. the trained estimator when a
        runner is asked to ``keep_model``) — never serialized into row
        output; the CLI's ``--save-model`` reads ``artifacts["model"]``.
    """

    name: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def row_by(self, key: str, value: Any) -> Dict[str, Any]:
        """Return the first row whose ``key`` column equals ``value``."""
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise ValidationError(f"no row with {key}={value!r} in experiment {self.name!r}")


def logprob_recorder(
    data,
    trajectory: List[float],
    *,
    n_chains: int,
    n_betas: int,
    seed: int,
    dtype: str = "float64",
    workers: int = 1,
):
    """A per-epoch ``callback(epoch, rbm)`` appending the AIS average log
    probability of ``data`` to ``trajectory`` (figures 7 and 8).  Epoch
    ``e`` seeds its AIS run with ``seed + e``."""

    def callback(epoch: int, rbm) -> None:
        trajectory.append(
            average_log_probability(
                rbm, data, n_chains=n_chains, n_betas=n_betas, rng=seed + epoch,
                dtype=dtype, workers=workers,
            )
        )

    return callback


def check_noise_configs(noise_configs: Any) -> Tuple[NoiseSpec, ...]:
    """The ``noise_configs`` knob of figures 8-10 as a tuple of
    :class:`~repro.config.NoiseSpec`.

    Each entry is a ``NoiseSpec`` or its ``to_dict()`` mapping (the form a
    recorded ``RunSpec`` keeps); anything else raises a
    :class:`ValidationError` naming ``noise_configs``, which the runners
    check before building any data.
    """
    if (
        isinstance(noise_configs, str)
        or not isinstance(noise_configs, Sequence)
        or not noise_configs
    ):
        raise ValidationError(
            "noise_configs must be a non-empty sequence of NoiseSpecs or their "
            f"to_dict() mappings, got {noise_configs!r}"
        )
    points = []
    for entry in noise_configs:
        if isinstance(entry, Mapping):
            try:
                entry = NoiseSpec.from_dict(entry)
            except ValidationError as exc:
                raise ValidationError(f"noise_configs entry: {exc}") from None
        if not isinstance(entry, NoiseSpec):
            raise ValidationError(
                "noise_configs entries must be NoiseSpecs or their to_dict() "
                f"mappings, got {entry!r}"
            )
        points.append(entry)
    return tuple(points)


def check_benchmark_name(name: Any, knob: str) -> str:
    """One entry of a dataset-name knob: a registered benchmark name.

    A non-string or unknown entry raises a :class:`ValidationError` naming
    ``knob``; the runners check their name knobs before building any data,
    so a bad entry late in a list fails before the earlier ones train.
    """
    if not isinstance(name, str):
        raise ValidationError(f"{knob}: expected a benchmark name, got {name!r}")
    try:
        get_benchmark(name)
    except ValidationError as exc:
        raise ValidationError(f"{knob}: {exc}") from None
    return name


def check_benchmark_names(names: Any, knob: str) -> Tuple[str, ...]:
    """A sequence-of-names knob (``datasets``, ``image_benchmarks``) as a
    tuple of registered benchmark names (see :func:`check_benchmark_name`)."""
    if isinstance(names, str) or not isinstance(names, Sequence):
        raise ValidationError(
            f"{knob} must be a sequence of benchmark names, got {names!r}"
        )
    return tuple(check_benchmark_name(name, knob) for name in names)


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render rows of dicts as an aligned plain-text table."""
    if not rows:
        return (title + "\n") if title else ""
    columns = list(rows[0].keys())
    rendered = [
        {col: _format_cell(row.get(col, ""), precision) for col in columns} for row in rows
    ]
    widths = {
        col: max(len(col), *(len(r[col]) for r in rendered)) for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for r in rendered:
        lines.append("  ".join(r[col].ljust(widths[col]) for col in columns))
    return "\n".join(lines)
