"""Shared result container and table formatting for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.specs import NoiseSpec
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

    @property
    def columns(self) -> List[str]:
        return list(self.rows[0].keys()) if self.rows else []

    def column(self, key: str) -> List[Any]:
        """Extract one column across all rows."""
        if not self.rows:
            raise ValidationError(f"experiment {self.name!r} has no rows")
        if key not in self.rows[0]:
            raise ValidationError(
                f"unknown column {key!r}; columns are {self.columns}"
            )
        return [row[key] for row in self.rows]

    def row_by(self, key: str, value: Any) -> Dict[str, Any]:
        """Return the first row whose ``key`` column equals ``value``."""
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise ValidationError(f"no row with {key}={value!r} in experiment {self.name!r}")


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
