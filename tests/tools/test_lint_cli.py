"""The lint driver surface: exit codes, --format json, discovery, CLI wiring."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from repro.tools.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run(*argv_paths, **kwargs):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = run_lint(list(argv_paths), **kwargs)
    return code, stream.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self):
        code, out = run(str(FIXTURES / "r001_good.py"))
        assert code == 0
        assert "OK" in out

    def test_findings_exit_one(self):
        code, out = run(str(FIXTURES / "r001_bad.py"))
        assert code == 1
        assert "R001" in out

    def test_missing_path_exits_two(self):
        code, _ = run(str(FIXTURES / "does_not_exist.py"))
        assert code == 2

    def test_unknown_select_exits_two(self):
        code, _ = run(str(FIXTURES / "r001_bad.py"), select="R999")
        assert code == 2

    def test_list_rules(self):
        code, out = run(list_rules=True)
        assert code == 0
        for rule_code in ("R001", "R002", "R004"):
            assert rule_code in out
        assert "R003" not in out


class TestJsonFormat:
    def test_report_structure(self):
        code, out = run(str(FIXTURES / "r002_bad.py"), output_format="json")
        assert code == 1
        report = json.loads(out)
        assert report["version"] == 1
        assert report["clean"] is False
        assert report["files_checked"] == 1
        assert report["summary"] == {"R002": 4}
        finding = report["findings"][0]
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert finding["code"] == "R002"

    def test_clean_report(self):
        code, out = run(str(FIXTURES / "r001_good.py"), output_format="json")
        assert code == 0
        report = json.loads(out)
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["summary"] == {}

    def test_select_filters_findings(self):
        _, out = run(
            str(FIXTURES / "r001_bad.py"),
            select="R002",
            output_format="json",
        )
        assert json.loads(out)["clean"] is True


class TestDiscovery:
    def test_directory_walk_covers_the_corpus(self):
        code, out = run(str(FIXTURES), output_format="json")
        assert code == 1
        report = json.loads(out)
        assert report["files_checked"] == len(list(FIXTURES.glob("*.py")))
        # Every bad fixture contributes its rule to the summary.
        assert set(report["summary"]) == {"R001", "R002", "R004"}

    def test_duplicate_paths_deduplicate(self):
        path = str(FIXTURES / "r001_bad.py")
        _, out = run(path, path, output_format="json")
        assert json.loads(out)["files_checked"] == 1


class TestCliWiring:
    def test_python_m_repro_lint_subcommand(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES / "r004_bad.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1
        assert "R004" in result.stdout

    def test_python_m_repro_lint_src_is_part_of_the_gate(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(result.stdout)["clean"] is True
