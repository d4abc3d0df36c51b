"""Hygiene tests of the public API surface and repository structure.

These keep the package importable as documented (every ``__all__`` entry
resolves, every public module carries a docstring) and keep the
documentation in sync with the code (every experiment listed in DESIGN.md's
index has a corresponding benchmark file).
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SUBPACKAGES = [
    "repro.utils",
    "repro.datasets",
    "repro.rbm",
    "repro.ising",
    "repro.analog",
    "repro.core",
    "repro.hardware",
    "repro.eval",
    "repro.experiments",
    "repro.config",
    "repro.api",
]


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_all_lists_every_subpackage(self):
        for name in SUBPACKAGES:
            assert name.split(".")[1] in repro.__all__

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__") and package.__all__
        for symbol in package.__all__:
            assert hasattr(package, symbol), f"{package_name}.{symbol} missing"

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_every_module_has_a_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and package.__doc__.strip()
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            assert module.__doc__ and module.__doc__.strip(), module.__name__

    def test_no_circular_import_order_dependence(self):
        """Importing any subpackage first must work (fresh interpreter not
        needed: reload each to exercise its import statements)."""
        for name in SUBPACKAGES:
            module = importlib.import_module(name)
            importlib.reload(module)


class TestRepositoryStructure:
    def test_required_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (REPO_ROOT / filename).is_file(), filename

    def test_design_doc_indexes_every_benchmark_artifact(self):
        """Every experiment id E1..E10 in DESIGN.md names a bench target that
        actually exists on disk."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        referenced = [
            part.split("`")[0]
            for part in design.split("benchmarks/")[1:]
        ]
        assert referenced, "DESIGN.md should reference benchmark files"
        for name in referenced:
            name = name.strip().rstrip(",")
            if name.endswith(".py"):
                assert (bench_dir / name).is_file(), name

    def test_every_paper_artifact_has_a_benchmark(self):
        bench_dir = REPO_ROOT / "benchmarks"
        expected = [
            "test_fig5_execution_time.py",
            "test_fig6_energy.py",
            "test_table2_area_power.py",
            "test_table3_accelerators.py",
            "test_fig7_logprob.py",
            "test_table4_accuracy.py",
            "test_fig8_noise_logprob.py",
            "test_fig9_mae_noise.py",
            "test_fig10_roc_noise.py",
            "test_fig11_bias_kl.py",
        ]
        for name in expected:
            assert (bench_dir / name).is_file(), name

    def test_examples_directory_has_quickstart(self):
        assert (REPO_ROOT / "examples" / "quickstart.py").is_file()

    def test_setup_shim_mirrors_the_console_scripts(self):
        """setup.py's ``console_scripts`` are pyproject.toml's
        ``[project.scripts]``, entry for entry."""
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        tree = ast.parse((REPO_ROOT / "setup.py").read_text())
        (entries,) = [
            value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "console_scripts"
        ]
        shim = dict(
            (part.strip() for part in entry.split("=", 1))
            for entry in ast.literal_eval(entries)
        )
        assert shim == pyproject["project"]["scripts"]

    def test_experiments_md_covers_every_artifact(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for heading in (
            "Figure 5", "Figure 6", "Table 2", "Table 3", "Figure 7",
            "Table 4", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
        ):
            assert heading in text, heading


def test_dense_entry_points_do_not_import_scipy():
    """scipy is loaded only by code that builds sparse matrices: the API
    facade and the serving layer import without it."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.api, repro.serve; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_spec_layer_imports_no_analog_module():
    """The spec layer is a leaf: ``import repro.config`` loads none of the
    circuit models that consume its specs."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.config; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analog')))",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
