"""Tests for the experiment result container and table formatting."""

import pytest

from repro.experiments import ExperimentResult, format_table
from repro.utils.validation import ValidationError


def _result():
    return ExperimentResult(
        name="demo",
        description="a demo experiment",
        rows=[
            {"workload": "a", "value": 1.5},
            {"workload": "b", "value": 2.5},
        ],
        metadata={"seed": 0},
    )


class TestExperimentResult:
    def test_row_by(self):
        assert _result().row_by("workload", "b")["value"] == 2.5

    def test_row_by_missing(self):
        with pytest.raises(ValidationError):
            _result().row_by("workload", "zzz")


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table(_result().rows, title="demo table")
        assert "demo table" in text
        assert "workload" in text
        assert "1.500" in text

    def test_precision(self):
        text = format_table([{"x": 1.23456}], precision=1)
        assert "1.2" in text
        assert "1.23" not in text

    def test_empty_rows(self):
        assert format_table([], title="t") == "t\n"
        assert format_table([]) == ""

    def test_mixed_types(self):
        text = format_table([{"name": "abc", "count": 3, "ratio": 0.5}])
        assert "abc" in text and "3" in text and "0.500" in text

    def test_alignment_consistent_line_lengths(self):
        rows = [{"a": "x", "b": 1.0}, {"a": "longer", "b": 22.5}]
        lines = format_table(rows).splitlines()
        assert len({len(line.rstrip()) for line in lines[1:2]}) == 1
