"""CLI tests: ``python -m repro run`` parsing, listing, and execution."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import SetArgumentError, main, parse_set_argument, parse_set_value
from repro.utils.validation import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSetValueParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("4", 4),
            ("0.5", 0.5),
            ("true", True),
            ("False", False),
            ("none", None),
            ("auto", "auto"),
            ("float32", "float32"),
            ("mnist,kmnist", ("mnist", "kmnist")),
            ("400,800", (400, 800)),
            ("mnist,", ("mnist",)),  # trailing comma: one-element list
        ],
    )
    def test_values(self, raw, expected):
        assert parse_set_value(raw) == expected

    def test_key_value_split(self):
        assert parse_set_argument("workers=4") == ("workers", 4)
        assert parse_set_argument("dtype=float32") == ("dtype", "float32")

    def test_missing_equals_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="key=value"):
            parse_set_argument("workers4")

    @pytest.mark.parametrize(
        "raw", ["lr=nan", "lr=NaN", "lr=inf", "lr=-inf", "lr=Infinity"]
    )
    def test_non_finite_values_rejected_naming_the_key(self, raw):
        """Satellite: 'nan'/'inf' parse as floats, so without this guard a
        NaN learning rate or seedless-inf knob sails into the spec layer."""
        with pytest.raises(ValidationError, match="lr"):
            parse_set_argument(raw)

    def test_non_finite_tuple_elements_rejected(self):
        with pytest.raises(ValidationError, match="node_counts"):
            parse_set_argument("node_counts=400,nan,800")

    def test_set_error_type_serves_both_consumers(self):
        """SetArgumentError must be a ValidationError for programmatic
        callers AND an ArgumentTypeError so argparse prints the message."""
        import argparse

        assert issubclass(SetArgumentError, ValidationError)
        assert issubclass(SetArgumentError, argparse.ArgumentTypeError)

    def test_non_finite_set_fails_through_main(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--set", "node_counts=nan"])
        assert "finite" in capsys.readouterr().err


class TestMain:
    def test_run_list_exits_zero_and_names_all_artifacts(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure5", "table2", "figure11"):
            assert name in out
        assert "paper" in out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "figure7" in capsys.readouterr().out

    def test_run_multiple_cheap_experiments(self, capsys):
        assert main(["run", "table2", "figure5"]) == 0
        out = capsys.readouterr().out
        assert "=== table2" in out
        assert "=== figure5" in out
        assert "TIMELY" not in out  # table3 was not requested

    def test_set_overrides_reach_the_runner(self, capsys):
        assert main(["run", "table2", "--set", "node_counts=400,800"]) == 0
        out = capsys.readouterr().out
        assert "(400, 800)" in out
        assert "preset custom" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["run", "table2", "--preset", "paper"]) == 2
        assert "available presets" in capsys.readouterr().err

    def test_unknown_set_knob_fails_before_running(self, capsys):
        assert main(["run", "table2", "--set", "bogus=1"]) == 2
        assert "does not accept" in capsys.readouterr().err

    def test_bad_compute_value_fails_cleanly(self, capsys):
        assert main(["run", "figure7", "--set", "workers=0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.fixture
    def forbid_training(self, monkeypatch):
        from repro.core import BGFTrainer, GibbsSamplerTrainer
        from repro.rbm import CDTrainer

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        for trainer in (BGFTrainer, CDTrainer, GibbsSamplerTrainer):
            monkeypatch.setattr(trainer, "train", no_training)

    @pytest.mark.parametrize("value", ["processes", "threads"])
    def test_removed_executor_knob_fails_before_training(
        self, forbid_training, capsys, value
    ):
        """The retired knob is rejected at the --set boundary; it must not
        fall through into params and be silently ignored by a runner."""
        assert main(["run", "figure7", "--set", f"executor={value}"]) == 2
        captured = capsys.readouterr()
        assert "executor" in captured.err
        assert "=== figure7" not in captured.out

    def test_negative_seed_fails_before_training(self, forbid_training, capsys):
        args = ["run", "figure7", "--set", "seed=-1", "--set", "epochs=2"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert "=== figure7" not in captured.out

    def test_validation_happens_for_all_names_before_any_run(self, capsys):
        # figure99 is invalid: table2 must not run first.
        assert main(["run", "table2", "figure99"]) == 2
        captured = capsys.readouterr()
        assert "=== table2" not in captured.out

    def test_run_without_names_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_quantize_requires_save_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "figure9", "--quantize"])
        assert "--save-model" in capsys.readouterr().err

    def test_save_model_quantize_writes_quantized_bundle(self, tmp_path, capsys):
        """Acceptance: the CLI trains, quantizes and persists an artifact
        that loads back as float32 parameters."""
        import json

        import numpy as np

        from repro.serve import load_model

        stem = tmp_path / "fig9q"
        assert main(
            ["run", "figure9", "--set", "epochs=1",
             "--save-model", str(stem), "--quantize"]
        ) == 0
        assert "saved figure9 model artifact" in capsys.readouterr().out
        meta = json.loads((tmp_path / "fig9q.json").read_text())
        assert meta["quantized"] is True
        assert "weights_q" in meta["arrays"]
        artifact = load_model(stem)
        assert artifact.rbm.weights.dtype == np.float32

    def test_dtype_qint8_routes_into_compute_spec(self, capsys):
        """`--set dtype=qint8` reaches the run's ComputeSpec and the run
        completes on the quantized tier (figure7 threads the dtype knob)."""
        assert main(["run", "figure7", "--set", "epochs=2",
                     "--set", "dtype=qint8"]) == 0
        assert "=== figure7" in capsys.readouterr().out

    def test_seed_override_flips_preset_label_to_custom(self, capsys):
        assert main(["run", "table3", "--seed", "9"]) == 2  # table3 is seedless
        assert "seed" in capsys.readouterr().err
        assert main(["run", "figure5"]) == 0
        assert "preset ci" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """Acceptance: ``python -m repro run <name>`` works end to end."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table3", "--set", "n_nodes=800"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "TIMELY" in result.stdout
